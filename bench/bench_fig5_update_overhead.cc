// Figure 5: per-update overhead of set_range + commit as updates per
// transaction grow to 5000, for the Unordered / Ordered / Redundant access
// patterns. Absolute numbers reflect this host (the paper's Alpha measured
// ~18 / ~14.8 / ~5 usec at 1000 updates); the shape — redundant < ordered <
// unordered, with a mild upward drift from the commit-time sort — is the result.
#include <cstdio>

#include "bench/update_sweep.h"

int main() {
  std::printf("=== Figure 5: per-update overhead up to 5000 updates/transaction ===\n\n");
  bench::PrintUpdateSweep({100, 250, 500, 1000, 2000, 3000, 4000, 5000});
  std::printf("\n(Alpha 1994 reference at 1000 updates/txn: unordered ~18, "
              "ordered ~14.8, redundant ~5 usec.)\n");
  std::printf("\n=== Group-commit throughput (kFlush, simulated disk) ===\n\n");
  bench::PrintCommitThroughput();
  return 0;
}
