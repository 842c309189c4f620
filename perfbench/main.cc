// lbc end-to-end benchmark driver.
//
//   lbc_perfbench --workload <oo7-fanout|hot-lock|commit-pressure|restart>
//                 --seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]
//
// Sets the workload up several times (reporting the median as setup_s), warms
// it up, then runs its closed loop. With --trace 0 it measures for
// --seconds and reports the end-to-end metrics. With --trace 1 it runs half
// the time untraced and half traced, derives the per-layer metrics from the
// traced half's spans and counters, reports the tracing overhead, and writes
// the spans to <trace-out>/<workload>-seed<n>.csv. Either way it then
// quiesces, checks every output, and prints a report whose last line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. It exits 1
// when any output check fails or any operation returned non-OK.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "perfbench/common.h"

namespace perfbench {
namespace {

// Set-up is repeated at least kMinSetups times and until kMinSetupSeconds
// have been spent (at most kMaxSetups times); setup_s is the median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 1000;
constexpr double kMinSetupSeconds = 0.25;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out = ".";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "lbc_perfbench: %s\nusage: lbc_perfbench --workload "
               "<oo7-fanout|hot-lock|commit-pressure|restart> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <dir>]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0) {
    Usage("--seconds must be positive");
  }
  return args;
}

std::unique_ptr<Workload> Make(const std::string& name, uint64_t seed) {
  if (name == "oo7-fanout") return MakeOo7Fanout(seed);
  if (name == "hot-lock") return MakeHotLock(seed);
  if (name == "commit-pressure") return MakeCommitPressure(seed);
  if (name == "restart") return MakeRestart(seed);
  Usage(("unknown workload '" + name + "'").c_str());
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

// Rescales a CPU-timed phase's times to a host on which the reference
// kernel takes its nominal time; returns the factor applied.
double Rescale(Samples* s) {
  const double scale = ReferenceKernel::kNominalMs / Percentile(s->ref_ms, 50);
  for (double& v : s->op_ms) {
    v *= scale;
  }
  for (double& v : s->done_ms) {
    v *= scale;
  }
  return scale;
}

void PrintLatency(const char* label, const std::string& what, const Samples& s,
                  const std::vector<double>& ms, double tail) {
  const double beyond = static_cast<double>(ms.size()) * (100.0 - tail) / 100.0 /
                        Samples::kTailWindows;
  std::printf("# %s = %s: n=%zu p50=%.4f ms p%g=%.4f ms (median over %d windows: %.4f ms)%s\n",
              label, what.c_str(), ms.size(), Percentile(ms, 50), tail, Percentile(ms, tail),
              Samples::kTailWindows, s.WindowedPercentile(ms, tail),
              beyond < 10 ? "  (fewer than 10 samples beyond the tail in a window)" : "");
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  std::unique_ptr<Workload> workload = Make(args.workload, args.seed);

  const bool cpu_timed = workload->TimesCpu();
  std::vector<double> setups;
  std::vector<double> setup_refs;
  double setup_total = 0;
  // Set-up runs on this thread, so a CPU-timed workload times it with this
  // thread's CPU clock, next to the reference kernel.
  auto now = [&] { return cpu_timed ? ThreadCpuNs() : NowNs(); };
  while (true) {
    if (cpu_timed) {
      setup_refs.push_back(ReferenceKernel::Get().RunCpuMs());
    }
    const uint64_t t0 = now();
    workload->Setup();
    setups.push_back(static_cast<double>(now() - t0) / 1e9);
    setup_total += setups.back();
    const int n = static_cast<int>(setups.size());
    if (n >= kMaxSetups || (n >= kMinSetups && setup_total >= kMinSetupSeconds)) {
      break;
    }
    workload->Teardown();
  }

  Samples all;  // every phase, for attempted/failed
  all.Merge(workload->Run(std::min(1.0, 0.1 * args.seconds)));  // warm-up, not reported

  std::vector<Metric> metrics;
  Samples measured;
  double scale = 1;
  if (!args.trace) {
    measured = workload->Run(args.seconds);
    all.Merge(measured);
    if (cpu_timed) {
      scale = Rescale(&measured);
    }
  } else {
    Samples untraced = workload->Run(args.seconds / 2);
    all.Merge(untraced);
    if (cpu_timed) {
      Rescale(&untraced);
    }
    Tracer& tracer = Tracer::Get();
    tracer.Clear();
    const LayerCounters before = LayerCounters::Read(*workload->world());
    tracer.SetEnabled(true);
    measured = workload->Run(args.seconds / 2);
    tracer.SetEnabled(false);
    all.Merge(measured);
    if (cpu_timed) {
      scale = Rescale(&measured);
    }
    const LayerCounters delta = LayerCounters::Read(*workload->world()) - before;
    const std::vector<SpanRecord> spans = tracer.Collect();

    AddCommonLayerMetrics(spans, delta, measured, &metrics);
    AddWireMetrics(*workload->world(), &metrics);
    const double plain = Percentile(untraced.op_ms, 50);
    metrics.push_back({"trace.overhead_pct",
                       plain > 0 ? 100.0 * (Percentile(measured.op_ms, 50) - plain) / plain : 0,
                       "%"});

    std::error_code ec;
    std::filesystem::create_directories(args.trace_out, ec);
    const std::string path = args.trace_out + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".csv";
    if (WriteSpansCsv(spans, path)) {
      std::printf("# spans: %zu written to %s\n", spans.size(), path.c_str());
    } else {
      std::printf("# spans: %zu (could not write %s)\n", spans.size(), path.c_str());
    }
    PrintLatency("untraced op", workload->OpName(), untraced, untraced.op_ms,
                 workload->TailPercentile());
  }

  std::vector<std::string> problems = all.problems;
  workload->Check(&problems);
  const double peak_rss = PeakRssMb();

  // The tails and the throughput are printed below but not in the JSON:
  // under load from outside the process they move by more than any bound.
  const double tail = workload->TailPercentile();
  const double txn_per_s =
      measured.elapsed_s > 0 ? static_cast<double>(measured.committed) / measured.elapsed_s : 0;
  if (!args.trace) {
    metrics.push_back({"op_p50_ms", Percentile(measured.op_ms, 50), "ms"});
    metrics.push_back({"done_p50_ms", Percentile(measured.done_ms, 50), "ms"});
    const double setup_scale =
        cpu_timed ? ReferenceKernel::kNominalMs / Percentile(setup_refs, 50) : 1;
    metrics.push_back({"setup_s", Percentile(setups, 50) * setup_scale, "s"});
  }

  workload->Teardown();

  std::printf("# lbc perfbench: workload=%s seed=%llu seconds=%g trace=%d nproc=%u build=%s "
              "flush=kFlush\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE);
  std::printf("# config: %s\n", workload->Describe().c_str());
  std::printf("# setup: %zu builds, median %.6f s%s\n", setups.size(), Percentile(setups, 50),
              cpu_timed ? " of CPU time, before rescaling" : "");
  if (cpu_timed) {
    std::printf("# times are CPU time rescaled by %.4f: the reference kernel took %.4f ms "
                "(median), against %.1f ms nominal\n",
                scale, Percentile(measured.ref_ms, 50), ReferenceKernel::kNominalMs);
  }
  PrintLatency("op", workload->OpName(), measured, measured.op_ms, tail);
  PrintLatency("done", workload->DoneName(), measured, measured.done_ms, tail);
  // Peak RSS is reported but not gated: the simulated disk (MemStore) lives
  // in this process, so it grows with the bytes committed, i.e. with speed.
  std::printf("# committed=%llu in %.3f s (txn_per_s=%.2f); failed_ratio=%llu/%llu; "
              "peak_rss=%.1f MiB\n",
              static_cast<unsigned long long>(measured.committed), measured.elapsed_s,
              txn_per_s, static_cast<unsigned long long>(all.failed),
              static_cast<unsigned long long>(all.attempted), peak_rss);
  for (const std::string& p : problems) {
    std::printf("# CHECK FAILED: %s\n", p.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("# %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  const bool correct = problems.empty() && all.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
