#include "src/rvm/log_merge.h"

#include <map>
#include <set>

#include "src/rvm/log_format.h"
#include "src/rvm/log_io.h"
#include "src/rvm/recovery.h"

namespace rvm {

base::Result<std::vector<TransactionRecord>> MergeTransactionLists(
    std::vector<std::vector<TransactionRecord>> per_node) {
  if (per_node.size() == 1) {
    // One node's log is already a serial order: its own commit order.
    return std::move(per_node[0]);
  }
  // For each lock, the next sequence number that may be emitted is the
  // minimum sequence remaining across all queues. A queue head is *ready*
  // when every one of its lock records carries that minimum. Strict 2PL
  // guarantees some head is always ready until the queues drain.
  struct Queue {
    std::vector<TransactionRecord>* txns;
    size_t next = 0;
    bool empty() const { return next >= txns->size(); }
    const TransactionRecord& head() const { return (*txns)[next]; }
  };
  std::vector<Queue> queues;
  size_t total = 0;
  for (auto& list : per_node) {
    total += list.size();
    queues.push_back(Queue{&list, 0});
  }

  // min_remaining[lock] = smallest sequence number for `lock` among all
  // not-yet-emitted transactions. Rebuilt incrementally: a multiset per lock.
  std::map<LockId, std::multiset<uint64_t>> remaining;
  for (const auto& q : queues) {
    for (size_t i = q.next; i < q.txns->size(); ++i) {
      for (const auto& lock : (*q.txns)[i].locks) {
        remaining[lock.lock_id].insert(lock.sequence);
      }
    }
  }

  auto is_ready = [&](const TransactionRecord& txn) {
    for (const auto& lock : txn.locks) {
      auto it = remaining.find(lock.lock_id);
      if (it == remaining.end() || it->second.empty()) {
        return false;  // inconsistent input
      }
      if (*it->second.begin() != lock.sequence) {
        return false;
      }
    }
    return true;
  };

  std::vector<TransactionRecord> merged;
  merged.reserve(total);
  while (merged.size() < total) {
    bool progressed = false;
    for (auto& q : queues) {
      // Drain each queue as long as its head is ready; this preserves
      // intra-node commit order and keeps the scan cheap.
      while (!q.empty() && is_ready(q.head())) {
        TransactionRecord txn = std::move((*q.txns)[q.next]);
        ++q.next;
        for (const auto& lock : txn.locks) {
          auto& seqs = remaining[lock.lock_id];
          seqs.erase(seqs.find(lock.sequence));
        }
        merged.push_back(std::move(txn));
        progressed = true;
      }
    }
    if (!progressed) {
      return base::FailedPrecondition(
          "log merge stuck: lock sequence numbers admit no serial order "
          "(corrupt logs or synchronization bug)");
    }
  }
  return merged;
}

base::Result<std::vector<TransactionRecord>> MergeLogs(
    store::DurableStore* store, const std::vector<std::string>& log_names) {
  std::vector<std::vector<TransactionRecord>> per_node;
  per_node.reserve(log_names.size());
  for (const auto& name : log_names) {
    ASSIGN_OR_RETURN(auto txns, ReadLogTransactions(store, name));
    per_node.push_back(std::move(txns));
  }
  return MergeTransactionLists(std::move(per_node));
}

base::Status WriteMergedLog(store::DurableStore* store,
                            const std::vector<std::string>& log_names,
                            const std::string& output_log_name) {
  ASSIGN_OR_RETURN(auto merged, MergeLogs(store, log_names));
  ASSIGN_OR_RETURN(auto file, store->Open(output_log_name, /*create=*/true));
  RETURN_IF_ERROR(file->Truncate(0));
  LogWriter writer(std::move(file));
  for (const auto& txn : merged) {
    std::vector<uint8_t> payload = EncodeTransaction(txn);
    RETURN_IF_ERROR(
        writer.Append(base::ByteSpan(payload.data(), payload.size()), /*sync_now=*/false));
  }
  return writer.Sync();
}

}  // namespace rvm
