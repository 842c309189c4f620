// Multi-log merge (paper §3.4): orders the transactions recorded in the
// per-node logs into one serial history that the standard recovery procedure
// can replay.
//
// Correctness rests on strict two-phase locking: if two transactions
// acquired the same segment lock, their lock records carry that lock's
// acquire-sequence numbers, and the one with the smaller sequence number
// must be ordered first. Transactions within one node's log are already in
// commit order. The merge is therefore a topological sort of the "same lock,
// smaller sequence first" + "same node, log order" constraints; a greedy
// head-selection over the per-node queues implements it in O(n · heads).
#ifndef SRC_RVM_LOG_MERGE_H_
#define SRC_RVM_LOG_MERGE_H_

#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/rvm/types.h"
#include "src/store/durable_store.h"

namespace rvm {

// Merges per-node transaction sequences (each inner vector in commit order)
// into one serial order consistent with every lock's sequence numbers.
// Fails with FAILED_PRECONDITION if the inputs admit no legal order (which
// strict 2PL makes impossible for well-formed logs: it indicates corruption
// or a synchronization bug). A single sequence is returned as it is: one
// node's commit order is already serial.
base::Result<std::vector<TransactionRecord>> MergeTransactionLists(
    std::vector<std::vector<TransactionRecord>> per_node);

// Convenience: reads the named log files and merges their contents.
base::Result<std::vector<TransactionRecord>> MergeLogs(
    store::DurableStore* store, const std::vector<std::string>& log_names);

// The offline merge utility: reads the named logs, writes the merged serial
// history to `output_log_name` as a standard single log (replayable by
// plain recovery).
base::Status WriteMergedLog(store::DurableStore* store,
                            const std::vector<std::string>& log_names,
                            const std::string& output_log_name);

}  // namespace rvm

#endif  // SRC_RVM_LOG_MERGE_H_
