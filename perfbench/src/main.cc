// Benchmark binary: runs one workload and prints one JSON report line
// (metrics with units, correctness gates, fingerprints, op counts and the
// run's environment). perfbench/run.py builds this binary, applies the
// pinned-fingerprint checks and prints the final result line.
//
//   perfbench --workload churn_direct|churn_overlay|sweep_figs|route_mesh
//             --seed N --seconds S --trace 0|1 [--threads N] [--shards N]
//             [--small] [--trace-out FILE]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"
#include "model/simd/dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(2);
}

using RunFn = void (*)(const perfbench::Options&, perfbench::Report*);

/// The workload family (one source file) that runs a workload.
RunFn runner(const std::string& workload) {
  if (workload == "churn_direct" || workload == "churn_overlay") return perfbench::run_churn;
  if (workload == "sweep_figs") return perfbench::run_sweep;
  if (workload == "route_mesh") return perfbench::run_route_mesh;
  return nullptr;
}

long parse_long(const char* s, long lo, long hi, const char* what) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v < lo || v > hi) usage(what);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--small") {
      opt.small = true;
    } else if (!has_val) {
      usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      char* end = nullptr;
      opt.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
      if (!(opt.seconds > 0 && opt.seconds <= 600)) usage("bad --seconds");
    } else if (a == "--trace") {
      opt.trace = parse_long(argv[++i], 0, 1, "bad --trace") == 1;
    } else if (a == "--threads") {
      opt.threads = static_cast<int>(parse_long(argv[++i], 0, 4096, "bad --threads"));
    } else if (a == "--shards") {
      opt.shards = static_cast<int>(parse_long(argv[++i], 1, 255, "bad --shards"));
    } else if (a == "--trace-out") {
      opt.trace_out = argv[++i];
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.threads == 0) {
    // Half the cores: a pool as wide as the machine stalls on any other
    // load, which would make every pool-bound figure noisy.
    opt.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency() / 2));
  }

  const RunFn run = runner(opt.workload);
  if (run == nullptr) usage("unknown --workload");
  perfbench::Report rep;
  run(opt, &rep);
  // A traced run reports every per-layer metric. The layers this workload
  // does not exercise are measured by a short reduced-scale traced run of a
  // workload that does, so every figure is a measurement; a placeholder
  // would read the same on every run.
  if (opt.trace) {
    for (const char* other : {"churn_direct", "sweep_figs", "route_mesh"}) {
      if (runner(other) == run) continue;
      perfbench::Options sub = opt;
      sub.workload = other;
      sub.small = true;
      sub.seconds = 0.3;
      sub.trace_out.clear();
      perfbench::Report r;
      runner(other)(sub, &r);
      rep.adopt_missing_metrics(r);
    }
  }

  const char* simd = cronets::model::simd::level_name(
      cronets::model::simd::active_level());
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"small\": %d, "
              "\"env\": {\"nproc\": %u, \"pool_threads\": %d, \"shards\": %d, "
              "\"simd\": \"%s\", \"build_type\": \"%s\"}, \"report\": ",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, opt.small ? 1 : 0,
              std::thread::hardware_concurrency(), opt.threads, opt.shards, simd,
              PERFBENCH_BUILD_TYPE);
  rep.write(stdout);
  std::printf("}\n");
  return 0;
}
