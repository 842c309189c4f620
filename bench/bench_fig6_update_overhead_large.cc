// Figure 6: the Figure 5 sweep extended to 300,000 updates per transaction.
// The per-update cost keeps growing slowly (the n log n commit-time sort)
// for the unordered pattern and stays flat for ordered/redundant.
#include <cstdio>

#include "bench/update_sweep.h"

int main() {
  std::printf(
      "=== Figure 6: per-update overhead up to 300,000 updates/transaction ===\n\n");
  bench::PrintUpdateSweep({10000, 50000, 100000, 200000, 300000});
  std::printf("\n=== Group-commit throughput (kFlush, simulated disk) ===\n\n");
  bench::PrintCommitThroughput();
  return 0;
}
