// Multi-log merge (paper §3.4): orders the transactions recorded in the
// per-node logs into one serial history that the standard recovery procedure
// can replay.
//
// Correctness rests on strict two-phase locking: if two transactions
// acquired the same segment lock, their lock records carry that lock's
// acquire-sequence numbers, and the one with the smaller sequence number
// must be ordered first. A writer's own transactions follow its commit
// order (commit_seq). A log may also hold copies of other nodes' records
// that a lock successor carried into its own batch (DESIGN.md, "Ordered and
// durable"): the merge keeps one copy per (node, commit_seq) and does not
// treat a log's order as a constraint. It is a topological sort of the
// "same lock, smaller sequence first" + "same writer, smaller commit_seq
// first" constraints, taking the earliest ready record in input order, in
// O(n log n).
#ifndef SRC_RVM_LOG_MERGE_H_
#define SRC_RVM_LOG_MERGE_H_

#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/rvm/types.h"
#include "src/store/durable_store.h"

namespace rvm {

// Merges per-node transaction sequences (each inner vector one log, in log
// order) into one serial order consistent with every lock's sequence
// numbers and every writer's commit order, each transaction once. Fails
// with FAILED_PRECONDITION if the inputs admit no legal order (which strict
// 2PL makes impossible for well-formed logs: it indicates corruption or a
// synchronization bug).
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
