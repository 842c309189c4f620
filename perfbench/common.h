// Shared pieces of the lbc benchmark: the storage/cluster stack every
// workload runs on, latency samples, layer counters read from the public
// stats() accessors, and the Workload interface the driver runs.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/timing_store.h"
#include "perfbench/tracer.h"
#include "src/lbc/client.h"
#include "src/lbc/cluster.h"
#include "src/store/mem_store.h"
#include "src/store/resource_store.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one closed-loop phase measured. Every timed operation lands in
// `op_ms` (the call a Table 1 caller blocks on) and `done_ms` (until its
// effect is complete); what those are depends on the workload.
struct Samples {
  std::vector<double> op_ms;
  std::vector<double> done_ms;
  std::vector<uint64_t> start_ns;  // when each sample's operation began
  std::vector<double> ref_ms;      // ReferenceKernel runs beside a CPU-timed loop
  uint64_t committed = 0;   // transactions committed
  uint64_t attempted = 0;   // Acquire/Commit/Restart/visibility calls made
  uint64_t failed = 0;      // ...that returned non-OK or timed out
  double elapsed_s = 0;     // measured wall time (oo7-fanout's checkpoint pauses excluded)
  std::vector<std::string> problems;  // failed operations and output checks

  // One committed transaction whose operation began at `start` (wall clock,
  // for the order of samples) and took op_ns and done_ns.
  void Record(uint64_t start, uint64_t op_ns, uint64_t done_ns);
  void Merge(const Samples& other);
  // The p-th percentile of `ms` (op_ms or done_ms) in each of kTailWindows
  // consecutive, equal-count slices of the run in start order, and the
  // median of those: a tail that one burst of outside load cannot move.
  double WindowedPercentile(const std::vector<double>& ms, double p) const;
  static constexpr int kTailWindows = 3;
  // Counts one call; a non-OK status counts as failed.
  bool Count(const base::Status& status);
};

// Nearest-rank percentile of `values` (p in [0, 100]); 0 when empty.
double Percentile(std::vector<double> values, double p);

// CPU time of the calling thread, in ns. Time the host's hypervisor steals
// from the virtual CPU is not counted (the kernel's steal-time accounting).
uint64_t ThreadCpuNs();

// A fixed, seeded CPU kernel: a dependent pointer chase over 32 MiB and one
// 4 MiB copy, memory-bound like oo7-fanout, whose four 4 MiB region copies,
// logs and messages do not fit in the processor's caches. On a shared host
// the CPU time of the same memory-bound code changes by up to half from one
// minute to the next with the other tenants' memory traffic, and this
// kernel's CPU time moves with it (see STEADINESS.md). CPU-timed workloads
// run it beside every timed operation and rescale their times to a host on
// which it takes kNominalMs; the constant only sets the scale.
class ReferenceKernel {
 public:
  static constexpr double kNominalMs = 2.0;

  // One per process: its 40 MiB are built once.
  static ReferenceKernel& Get();
  // Runs the kernel once; returns its CPU time on the calling thread, in ms.
  double RunCpuMs();

 private:
  ReferenceKernel();

  std::vector<uint32_t> next_;  // a single cycle through every index
  std::vector<uint8_t> from_;
  std::vector<uint8_t> to_;
  uint32_t at_ = 0;
};

// CPU time of every thread of this process, summed from each thread's own
// clock. The process clock (CLOCK_PROCESS_CPUTIME_ID) counts a thread that is
// running on another CPU only up to its last scheduler tick; a thread's own
// clock counts it up to now.
class ProcessCpuClock {
 public:
  // Lists the process's threads. Call again after threads start or exit.
  void ListThreads();
  uint64_t NowNs() const;

 private:
  std::vector<clockid_t> clocks_;
};

// The stack each workload runs on: MemStore under a ResourceStore (the
// simulated disk latency) under the benchmark's TimingStore, one lbc
// cluster over it, and the client nodes. Log reads skip the simulated
// latency (see TimingStore). Members are destroyed in reverse order:
// clients first, then the cluster, then the stores.
struct World {
  explicit World(uint64_t seed)
      : resource(&mem, seed), store(&resource, &mem), cluster(&store) {}

  // Creates node `node` with the benchmark's client options.
  lbc::Client* AddClient(rvm::NodeId node);
  lbc::Client* client(size_t i) { return clients[i].get(); }
  // Database file contents read directly from the MemStore (no latency, not
  // counted), for output checks.
  std::vector<uint8_t> ReadRegionFile(rvm::RegionId region, uint64_t length);

  store::MemStore mem;
  store::ResourceStore resource;
  TimingStore store;
  lbc::Cluster cluster;
  std::vector<std::unique_ptr<lbc::Client>> clients;
};

// Layer counters summed over every node, from the public stats() accessors
// and the obs registry. Subtract two readings to get a phase's activity.
struct LayerCounters {
  lbc::ClientStats client;
  rvm::RvmStats rvm;
  netsim::EndpointStats net;
  StoreCounts store;
  uint64_t pages_on_demand = 0;
  uint64_t pages_background = 0;

  static LayerCounters Read(World& world);
  LayerCounters operator-(const LayerCounters& earlier) const;
};

// The per-layer metrics, from a traced phase's spans and counter deltas.
// `samples` is that phase's end-to-end record. Every workload gets every
// metric: a layer the workload does not exercise reads 0.
void AddCommonLayerMetrics(const std::vector<SpanRecord>& spans, const LayerCounters& delta,
                           const Samples& samples, std::vector<Metric>* out);

// wire.encode.ns_per_range / wire.decode.ns_per_range, timed on the
// committed records read back from every node's log.
void AddWireMetrics(World& world, std::vector<Metric>* out);

// Compares two images; on mismatch appends a problem naming the first
// differing offset.
void CheckEqual(const std::string& what, const uint8_t* expected, const uint8_t* actual,
                uint64_t len, std::vector<std::string>* problems);

class Workload {
 public:
  virtual ~Workload() = default;

  // What op_ms / done_ms time on this workload, for the report.
  virtual std::string OpName() const = 0;
  virtual std::string DoneName() const = 0;
  // The tail percentile reported; chosen so a run has well over ten samples
  // beyond it.
  virtual double TailPercentile() const = 0;
  // Simulated latencies, sizes and policies, for the report.
  virtual std::string Describe() const = 0;
  // True when op, done and set-up are CPU time rather than wall time: a
  // CPU-bound workload's wall time follows the load on a shared host.
  virtual bool TimesCpu() const { return false; }

  // Builds the world (timed as set-up) and tears it down again.
  virtual void Setup() = 0;
  virtual void Teardown() = 0;
  // Runs the closed loop for `seconds`.
  virtual Samples Run(double seconds) = 0;
  // Quiesces and checks every output; appends failures to `problems`.
  virtual void Check(std::vector<std::string>* problems) = 0;
  virtual World* world() = 0;
};

std::unique_ptr<Workload> MakeOo7Fanout(uint64_t seed);
std::unique_ptr<Workload> MakeHotLock(uint64_t seed);
std::unique_ptr<Workload> MakeCommitPressure(uint64_t seed);
std::unique_ptr<Workload> MakeRestart(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
