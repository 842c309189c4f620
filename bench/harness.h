// Shared benchmark harness: runs OO7 traversals through log-based coherency
// between two (or more) client nodes, capturing both the measured wall-clock
// component times on this host and the workload profile (updates, bytes,
// message bytes, pages) that drives the paper's analytic Page / Cpy/Cmp
// lower bounds.
//
// Every update traversal runs as a single transaction under a single
// segment lock, exactly as in §4.1: one node performs the traversal, the
// peer receives the committed log tail and installs the updates, and the
// harness verifies that the two cached images are byte-identical afterwards.
#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/clock.h"
#include "src/base/logging.h"
#include "src/costmodel/alpha_costs.h"
#include "src/lbc/client.h"
#include "src/oo7/database.h"
#include "src/oo7/traversals.h"
#include "src/store/mem_store.h"

namespace bench {

// UpdateSink that forwards set_range declarations into a transaction.
class TxnSink : public oo7::UpdateSink {
 public:
  TxnSink(lbc::Transaction* txn, rvm::RegionId region) : txn_(txn), region_(region) {}
  base::Status SetRange(uint64_t offset, uint64_t len) override {
    return txn_->SetRange(region_, offset, len);
  }

 private:
  lbc::Transaction* txn_;
  rvm::RegionId region_;
};

// UpdateSink that records set_range declarations instead of issuing them.
// The figure benches then issue the whole batch back to back between two
// clock reads — legal under kNoRestore, where a declaration need not precede
// the store — so Detect is timed per traversal, not per call.
class RecordingSink : public oo7::UpdateSink {
 public:
  base::Status SetRange(uint64_t offset, uint64_t len) override {
    ranges_.emplace_back(offset, len);
    return base::OkStatus();
  }

  // Issues every recorded declaration through `declare(offset, len)` and
  // returns the elapsed microseconds.
  template <typename Declare>
  double IssueTimed(Declare declare) const {
    base::Stopwatch timer;
    for (const auto& [offset, len] : ranges_) {
      LBC_CHECK_OK(declare(offset, len));
    }
    return timer.ElapsedMicros();
  }

  // The recorded (offset, len) declarations, in call order.
  const std::vector<std::pair<uint64_t, uint64_t>>& ranges() const { return ranges_; }

 private:
  std::vector<std::pair<uint64_t, uint64_t>> ranges_;
};

struct ComponentTimes {  // microseconds, measured on this host
  double detect_us = 0;   // set_range batch
  double collect_us = 0;  // commit-time gather/encode
  double network_us = 0;  // coherency sends
  double apply_us = 0;    // receiver-side installation (per applied record)
  double disk_us = 0;     // log write + sync (zero when disk logging is off)
  double total_us = 0;    // whole traversal + commit wall time

  double OverheadUs() const { return detect_us + collect_us + network_us + apply_us; }
};

struct TraversalRun {
  std::string name;
  oo7::TraversalResult result;
  costmodel::UpdateProfile profile;
  ComponentTimes measured;
  bool caches_match = false;  // receiver image == writer image after commit
};

struct HarnessOptions {
  oo7::Config config;                 // database scale
  lbc::ClientOptions client;          // applied to every node
  int num_receivers = 1;              // §4.3.1 scaling knob
  bool disk_logging = false;          // §4: disabled to isolate coherency
};

// Owns the store, cluster, database image and clients for a benchmark run.
class Oo7Harness {
 public:
  static constexpr rvm::RegionId kRegion = 1;
  static constexpr rvm::LockId kLock = 1;

  explicit Oo7Harness(HarnessOptions options);
  ~Oo7Harness();

  // Runs one traversal by name ("T1", "T6", "T2-A", "T2-B", "T2-C",
  // "T3-A", "T3-B", "T3-C", "T12-A", "T12-C") as a single transaction.
  TraversalRun Run(const std::string& name);

  lbc::Client* writer() { return clients_[0].get(); }
  lbc::Client* receiver(int i = 0) { return clients_[1 + i].get(); }
  oo7::Database database() { return oo7::Database(writer()->GetRegion(kRegion)->data()); }

 private:
  void ResetAllStats();

  HarnessOptions options_;
  store::MemStore store_;
  std::unique_ptr<lbc::Cluster> cluster_;
  std::vector<std::unique_ptr<lbc::Client>> clients_;  // [0] = writer
  uint64_t db_size_ = 0;
  uint64_t committed_seq_ = 0;  // lock sequence of the last committed run
};

// Pretty-printers shared by the per-figure binaries.
void PrintProfileTableHeader();
void PrintProfileRow(const TraversalRun& run);
void PrintBreakdownHeader(const std::string& unit_note);
void PrintBreakdownRow(const std::string& label, const costmodel::OverheadBreakdown& b);
void PrintMeasuredRow(const std::string& label, const ComponentTimes& t);

// Shared driver for Figures 1-3: runs each traversal at paper scale and
// prints (a) the Log coherency overhead measured live on this host and
// (b) the paper's Alpha/AN1-modeled breakdown for Log, Cpy/Cmp and Page
// computed from the measured workload profile.
void RunFigureComparison(const std::vector<std::string>& names);

}  // namespace bench

#endif  // BENCH_HARNESS_H_
