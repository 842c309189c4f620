#include "src/lbc/online_trim.h"

#include <string>

#include "src/rvm/recovery.h"

namespace lbc {

base::Status OnlineTrim(Cluster* cluster, Client* coordinator,
                        const std::vector<Client*>& clients) {
  // 1. Quiesce: take every segment lock in one transaction.
  Transaction txn = coordinator->Begin(rvm::RestoreMode::kNoRestore);
  for (rvm::LockId lock : cluster->AllLocks()) {
    RETURN_IF_ERROR(txn.Acquire(lock));
  }

  // 2. Force every node's committed records to the storage service: each
  //    FlushLog waits out its node's batches in flight (commits ahead of
  //    the quiesce released their locks when they were ordered, possibly
  //    before their log force). Carried copies need no force: their
  //    writers are flushed here too.
  std::vector<std::string> log_names;
  for (Client* client : clients) {
    RETURN_IF_ERROR(client->rvm()->FlushLog());
    log_names.push_back(rvm::LogFileName(client->node()));
  }

  // 3. Merge by lock records, replay into the database files, and record
  //    the per-lock baselines future joiners will adopt.
  RETURN_IF_ERROR(cluster->ReplayAndRecordBaselines(log_names));

  // 4. The logs' contents are durable in the database files: reset them,
  //    and stop carrying what the merge folded in (a carried copy written
  //    into a later log would replay over newer bytes at the next boot).
  for (Client* client : clients) {
    client->DropFoldedRecords();
    RETURN_IF_ERROR(client->rvm()->ResetLog());
  }

  // 5. Release the locks (read-only commit: no sequence numbers consumed).
  return txn.Commit();
}

}  // namespace lbc
