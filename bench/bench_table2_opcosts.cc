// Table 2: primitive operation costs.
//
// Prints the published Alpha/AN1 measurements next to live measurements on
// this host (memcpy/memcmp of 8 KB pages cold and warm, a page send through
// the in-process fabric, and a real SIGSEGV + mprotect protection-fault
// round trip — the same user-level protocol the paper timed on OSF/1), and
// the per-update cost log-based coherency adds instead: set_range + commit
// through the transaction handle, in the three patterns of Figure 5.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/update_sweep.h"
#include "src/costmodel/alpha_costs.h"
#include "src/costmodel/host_measure.h"

namespace {

// Median of `runs` one-transaction measurements at `updates` per transaction.
double MedianPerUpdateUs(bench::UpdatePattern pattern, uint64_t updates, int runs) {
  std::vector<double> us;
  for (int i = 0; i < runs; ++i) {
    us.push_back(bench::MeasurePerUpdateUs(pattern, updates));
  }
  std::nth_element(us.begin(), us.begin() + runs / 2, us.end());
  return us[runs / 2];
}

}  // namespace

int main() {
  std::printf("=== Table 2: operation costs (per 8 KB page) ===\n\n");
  costmodel::OperationCosts alpha = costmodel::AlphaAn1Costs();
  std::printf("%-36s %14s %14s\n", "Operation", "Alpha/AN1 1994", "this host");
  std::printf("%-36s %11s/page %11s/page\n", "", "usec", "usec");

  costmodel::HostCosts host = costmodel::MeasureHostCosts();

  auto row = [](const char* name, double alpha_us, double host_us) {
    std::printf("%-36s %14.1f %14.2f\n", name, alpha_us, host_us);
  };
  row("page copy (cold cache)", alpha.page_copy_cold_us, host.page_copy_cold_us);
  row("page copy (warm cache)", alpha.page_copy_warm_us, host.page_copy_warm_us);
  row("page compare (cold cache)", alpha.page_compare_cold_us, host.page_compare_cold_us);
  row("page compare (warm cache)", alpha.page_compare_warm_us, host.page_compare_warm_us);
  row("page send (TCP/IP | fabric)", alpha.page_send_us, host.page_send_us);
  row("handle signal and change protection", alpha.signal_us, host.signal_us);

  // The Alpha figures are read off Figure 5 at ~1000 updates/transaction.
  constexpr uint64_t kUpdates = 1000;
  constexpr int kRuns = 21;
  std::printf("\n%-36s %14s %14s\n", "set_range + commit, 1000 updates/txn", "Alpha 1994",
              "this host");
  std::printf("%-36s %10s/upd %10s/upd\n", "", "usec", "usec");
  auto update_row = [](const char* name, double alpha_us, double host_us) {
    std::printf("%-36s %14.1f %14.3f\n", name, alpha_us, host_us);
  };
  update_row("set_range, unordered", alpha.update_unordered_us,
             MedianPerUpdateUs(bench::UpdatePattern::kUnordered, kUpdates, kRuns));
  update_row("set_range, ordered", alpha.update_ordered_us,
             MedianPerUpdateUs(bench::UpdatePattern::kOrdered, kUpdates, kRuns));
  update_row("set_range, redundant", alpha.update_redundant_us,
             MedianPerUpdateUs(bench::UpdatePattern::kRedundant, kUpdates, kRuns));

  std::printf("\nThroughput equivalents (1994): copy %d MB/s warm, send %.1f Mbit/s\n",
              static_cast<int>(8192 / alpha.page_copy_warm_us), 8192 * 8 / alpha.page_send_us);
  std::printf("Derived scatter-send cost used by the estimators: %.4f usec/byte\n",
              alpha.scatter_send_us_per_byte);
  return 0;
}
