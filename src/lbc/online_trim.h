// Online log trimming (§3.5).
//
// The prototype trimmed logs offline (merge + replay + truncate with all
// clients stopped). The paper sketches an online variant: coordinate a
// checkpoint so that logs can be trimmed while the system stays up. This
// implements that sketch with the protocol's own machinery:
//
//   1. a coordinator client acquires EVERY segment lock inside one
//      transaction (strict 2PL quiesces all writers — committed state is
//      stable and every log is final for the trim window);
//   2. every client flushes its redo log to the storage service (waiting
//      out the log forces of commits that passed their locks on at ordered);
//   3. the logs are merged by lock records and replayed into the permanent
//      database files (the standard recovery procedure);
//   4. every client resets its log — the records are now reflected in the
//      database files — and drops the carried records the merge folded in;
//   5. the coordinator commits its (read-only) transaction, releasing the
//      locks; writers resume with empty logs.
//
// The coordinator must map every region that has a defined lock (locks can
// only be acquired over mapped regions).
#ifndef SRC_LBC_ONLINE_TRIM_H_
#define SRC_LBC_ONLINE_TRIM_H_

#include <vector>

#include "src/base/status.h"
#include "src/lbc/client.h"

namespace lbc {

base::Status OnlineTrim(Cluster* cluster, Client* coordinator,
                        const std::vector<Client*>& clients);

}  // namespace lbc

#endif  // SRC_LBC_ONLINE_TRIM_H_
