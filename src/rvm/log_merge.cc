#include "src/rvm/log_merge.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/rvm/log_io.h"
#include "src/rvm/recovery.h"

namespace rvm {

namespace {

// True when `txns` already is a serial order: one copy of each transaction,
// every lock's sequences and every writer's commit_seqs ascending. The
// topological sort below returns such a list unchanged, so a single log
// written in commit order (the common boot and trim input) skips it.
bool AlreadySerial(const std::vector<TransactionRecord>& txns) {
  // A log names a few writers and locks: flat vectors, searched linearly.
  std::vector<std::pair<NodeId, uint64_t>> writer_seq;
  std::vector<std::pair<LockId, uint64_t>> lock_seq;
  auto last = [](auto& seen, auto id) -> std::pair<uint64_t*, bool> {
    for (auto& [key, seq] : seen) {
      if (key == id) {
        return {&seq, false};
      }
    }
    seen.emplace_back(id, 0);
    return {&seen.back().second, true};
  };
  for (const TransactionRecord& txn : txns) {
    auto [commit, first] = last(writer_seq, txn.node);
    if (!first && txn.commit_seq <= *commit) {
      return false;
    }
    *commit = txn.commit_seq;
    for (const LockRecord& lock : txn.locks) {
      auto [seq, new_lock] = last(lock_seq, lock.lock_id);
      if (!new_lock && lock.sequence < *seq) {
        return false;
      }
      *seq = lock.sequence;
    }
  }
  return true;
}

}  // namespace

base::Result<std::vector<TransactionRecord>> MergeTransactionLists(
    std::vector<std::vector<TransactionRecord>> per_node) {
  if (per_node.size() == 1 && AlreadySerial(per_node[0])) {
    return std::move(per_node[0]);
  }
  // One copy of each transaction, named by (writer, commit_seq): a record a
  // successor carried into its own log is the same transaction as the
  // writer's copy. The first copy in input order is kept.
  std::vector<TransactionRecord> txns;
  {
    std::set<std::pair<NodeId, uint64_t>> seen;
    for (auto& list : per_node) {
      for (auto& txn : list) {
        if (seen.emplace(txn.node, txn.commit_seq).second) {
          txns.push_back(std::move(txn));
        }
      }
    }
  }

  // The constraints, as edges between groups: per lock, every transaction
  // with a smaller sequence precedes every one with a larger sequence (equal
  // sequences are unordered); per writer, commit_seq order (the order the
  // writer's images saw them). A transaction is ready once every group it
  // waits behind is fully emitted. Strict 2PL and ordering before the token
  // passes make the graph acyclic for well-formed logs.
  struct Chain {
    // (key, txn index), sorted: key is the lock sequence or the commit_seq.
    std::vector<std::pair<uint64_t, uint32_t>> members;
    size_t next_group = 0;     // first member of the group not yet released
    size_t pending_in_group = 0;  // unemitted members of the released group
  };
  std::map<LockId, Chain> lock_chains;
  std::map<NodeId, Chain> writer_chains;
  std::vector<uint32_t> waiting(txns.size(), 0);  // chains still blocking each txn
  for (uint32_t i = 0; i < txns.size(); ++i) {
    for (const auto& lock : txns[i].locks) {
      lock_chains[lock.lock_id].members.emplace_back(lock.sequence, i);
      ++waiting[i];
    }
    writer_chains[txns[i].node].members.emplace_back(txns[i].commit_seq, i);
    ++waiting[i];
  }

  // Ready transactions, smallest input position first: with no carried
  // copies this drains each log in order, as the logs were written.
  std::set<uint32_t> ready;
  // Releases the chain's next group (every member with the next key).
  auto release_group = [&](Chain& chain) {
    const size_t begin = chain.next_group;
    size_t end = begin;
    while (end < chain.members.size() &&
           chain.members[end].first == chain.members[begin].first) {
      ++end;
    }
    chain.next_group = end;
    chain.pending_in_group = end - begin;
    for (size_t k = begin; k < end; ++k) {
      if (--waiting[chain.members[k].second] == 0) {
        ready.insert(chain.members[k].second);
      }
    }
  };
  auto emitted_from = [&](Chain& chain) {
    if (--chain.pending_in_group == 0 && chain.next_group < chain.members.size()) {
      release_group(chain);
    }
  };
  auto start = [&](Chain& chain) {
    std::sort(chain.members.begin(), chain.members.end());
    release_group(chain);
  };
  for (auto& [lock, chain] : lock_chains) {
    start(chain);
  }
  for (auto& [node, chain] : writer_chains) {
    start(chain);
  }

  std::vector<TransactionRecord> merged;
  merged.reserve(txns.size());
  while (!ready.empty()) {
    const uint32_t i = *ready.begin();
    ready.erase(ready.begin());
    for (const auto& lock : txns[i].locks) {
      emitted_from(lock_chains[lock.lock_id]);
    }
    emitted_from(writer_chains[txns[i].node]);
    merged.push_back(std::move(txns[i]));
  }
  if (merged.size() != txns.size()) {
    return base::FailedPrecondition(
        "log merge stuck: lock sequence numbers admit no serial order "
        "(corrupt logs or synchronization bug)");
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
    RETURN_IF_ERROR(writer.Append(txn.payload, /*sync_now=*/false));  // as it was read
  }
  return writer.Sync();
}

}  // namespace rvm
