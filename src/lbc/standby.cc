#include "src/lbc/standby.h"

#include <cstdint>
#include <map>
#include <numeric>
#include <vector>

#include "src/rvm/page_checksum.h"
#include "src/rvm/recovery.h"
#include "src/rvm/types.h"

namespace lbc {

base::Status CheckpointFromStandby(Cluster* cluster, Client* standby,
                                   const std::vector<Client*>& writers) {
  // 0. Incremental-recovery barrier: the standby's image reflects records
  //    newer than anything in the boot index, so a pending indexed page
  //    materialized after this checkpoint (and after the trims below
  //    removed its records' logs) would roll the page backwards. Finish the
  //    replay first.
  RETURN_IF_ERROR(cluster->DrainRecovery());

  // 1. Fix the cut: apply everything buffered; the image and applied
  //    sequence numbers are now stable until the next Accept (the standby
  //    runs versioned reads and never acquires).
  RETURN_IF_ERROR(standby->Accept());

  std::map<rvm::LockId, uint64_t> baselines;
  for (rvm::LockId lock : cluster->AllLocks()) {
    ASSIGN_OR_RETURN(LockSpec spec, cluster->GetLock(lock));
    if (standby->GetRegion(spec.region) == nullptr) {
      return base::FailedPrecondition(
          "standby must map every locked region to checkpoint");
    }
    baselines[lock] = standby->AppliedSeq(lock);
  }

  // 2. Write the standby's images to the permanent database files. Commits
  //    racing this write only touch bytes whose records stay in the logs
  //    (their sequence numbers exceed the cut), so the file is a consistent
  //    base for replay either way. The cluster's database-writer lock keeps
  //    recovery replay and scrub repairs from interleaving with the image
  //    write on the same pages.
  {
    base::WriterMutexLock db_guard(cluster->DbMutex());
    for (rvm::RegionId region : standby->MappedRegions()) {
      const rvm::Region* r = standby->GetRegion(region);
      // The whole image goes through the replay engine as one offset-zero
      // range over every page it spans: intent entries, page writes, file
      // sync and read-back verification are the same code recovery replay
      // uses, and every page the image covers whole is written blind, its
      // old contents neither read nor gated. The image is durable and
      // certified before the trims below: a crash in between leaves every
      // log untrimmed, and boot-time replay applies their records over the
      // certified image.
      const rvm::RangeImage image{region, 0, base::ByteSpan(r->data(), r->size())};
      std::vector<uint64_t> pages((r->size() + rvm::kDbPageSize - 1) / rvm::kDbPageSize);
      std::iota(pages.begin(), pages.end(), uint64_t{0});
      RETURN_IF_ERROR(rvm::ReplayRegionFile(cluster->store(), region, pages, {image}));
    }
  }
  for (const auto& [lock, seq] : baselines) {
    cluster->RecordBaseline(lock, seq);
  }

  // 3. Trim every writer's log below the cut — no quiescing — and stop
  //    carrying the records the checkpoint covers (the trim drops covered
  //    carried copies from the log too).
  standby->DropFoldedRecords();
  for (Client* writer : writers) {
    writer->DropFoldedRecords();
    RETURN_IF_ERROR(writer->rvm()->TrimLogWithBaselines(baselines));
  }
  return base::OkStatus();
}

}  // namespace lbc
