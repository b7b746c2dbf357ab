#pragma once

// Shared plumbing of the benchmark's workloads: run options, the report
// every workload fills (metrics with units, correctness gates, fingerprints,
// op counts), output fingerprints, and the timed window's blocks.

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "sim/hash_rng.h"
#include "trace.h"

namespace perfbench {

/// Every workload runs on the evaluation's Internet — the world seed the
/// figure benches default to — so --seed varies what the workload does on
/// it (session streams, sample times, faults, lookups), not the topology.
constexpr std::uint64_t kWorldSeed = 42;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 0;  ///< measurement pool threads (0 = nproc / 2)
  int shards = 4;   ///< broker shards (churn workloads)
  bool small = false;  ///< reduced scale (self-test)
  std::string trace_out;

  /// Set-up repeats until 3 runs and 0.5 s are spent (at most 25), so
  /// setup_s is the median of enough samples to be steady. A reduced-scale
  /// run sets up once.
  bool more_setups(int done, double spent_s) const {
    if (small) return done < 1;
    return done < 3 || (spent_s < 0.5 && done < 25);
  }
};

class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void detail(const std::string& name, double value) {
    details_.emplace_back(name, value);
  }
  void gate(const std::string& name, bool ok) { gates_.emplace_back(name, ok); }
  void fingerprint(const std::string& name, std::uint64_t v) {
    fingerprints_.emplace_back(name, v);
  }
  /// Take every metric of `other` this report lacks, listing it as borrowed.
  void adopt_missing_metrics(const Report& other) {
    for (const Metric& m : other.metrics_) {
      bool have = false;
      for (const Metric& x : metrics_) have = have || x.name == m.name;
      if (have) continue;
      metrics_.push_back(m);
      borrowed_.push_back(m.name);
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Record peak resident memory now, at the end of the workload's fixed
  /// prefix (set-up plus the fingerprinted warm-up), so the figure does not
  /// grow with how much work the timed window gets through.
  void mark_peak_rss() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  }

  void write(std::FILE* f) const {
    std::fprintf(f, "{\"attempted\": %llu, \"failed\": %llu, \"gates\": {",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < gates_.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %s", i ? ", " : "", gates_[i].first.c_str(),
                   gates_[i].second ? "true" : "false");
    }
    // Fingerprints as decimal strings: JSON numbers lose bits past 2^53.
    std::fprintf(f, "}, \"fingerprints\": {");
    for (std::size_t i = 0; i < fingerprints_.size(); ++i) {
      std::fprintf(f, "%s\"%s\": \"%llu\"", i ? ", " : "",
                   fingerprints_[i].first.c_str(),
                   static_cast<unsigned long long>(fingerprints_[i].second));
    }
    std::fprintf(f, "}, \"metrics\": {");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                   metrics_[i].unit);
    }
    std::fprintf(f, "}, \"borrowed\": [");
    for (std::size_t i = 0; i < borrowed_.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i ? ", " : "", borrowed_[i].c_str());
    }
    std::fprintf(f, "], \"detail\": {");
    for (std::size_t i = 0; i < details_.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %.17g", i ? ", " : "", details_[i].first.c_str(),
                   details_[i].second);
    }
    std::fprintf(f, "}}");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, double>> details_;
  std::vector<std::pair<std::string, bool>> gates_;
  std::vector<std::pair<std::string, std::uint64_t>> fingerprints_;
  std::vector<std::string> borrowed_;
};

/// Order-sensitive 64-bit hash of doubles by bit pattern (the bitwise
/// output witness of the sweep and route workloads).
class Fingerprint {
 public:
  void add(std::uint64_t v) { h_ = cronets::sim::hash_combine(h_, v); }
  void add_double(double d) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(d));
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x243f6a8885a308d3ull;
};

/// Median of a small sample (copies).
inline double median(std::vector<double> v) { return percentile(&v, 0.5); }

/// The timed window as a sequence of equal blocks of work. Throughput is
/// the median over blocks, so a burst of outside load on the machine moves
/// one block, not the figure. In a traced run blocks alternate untraced /
/// traced: the traced ones give the per-layer split, and the ratio of the
/// two medians is the tracing overhead.
class Blocks {
 public:
  void add(double wall_s, double work, bool traced) {
    rate_[traced].push_back(work / wall_s);
    wall_s_[traced] += wall_s;
  }
  double median_rate(bool traced) const { return median(rate_[traced]); }
  /// Quartile spread of the untraced block rates, as a share of their
  /// median (how steady the machine was during the run).
  double rate_spread() const {
    std::vector<double> v = rate_[0];
    const double m = percentile(&v, 0.5);
    return m > 0 ? (percentile(&v, 0.75) - percentile(&v, 0.25)) / m : 0.0;
  }
  /// Median rate of the last third of the untraced blocks over that of the
  /// first third, minus 1: near 0 when every block does the same work.
  double rate_drift() const {
    const std::vector<double>& v = rate_[0];
    const std::size_t n = v.size() / 3;
    if (n == 0) return 0.0;
    const auto k = static_cast<std::ptrdiff_t>(n);
    const double first = median(std::vector<double>(v.begin(), v.begin() + k));
    const double last = median(std::vector<double>(v.end() - k, v.end()));
    return first > 0 ? last / first - 1.0 : 0.0;
  }
  std::size_t count(bool traced) const { return rate_[traced].size(); }
  double wall_s(bool traced) const { return wall_s_[traced]; }
  double overhead_ratio() const {
    const double traced = median_rate(true);
    return traced > 0 ? median_rate(false) / traced - 1.0 : 0.0;
  }

 private:
  std::vector<double> rate_[2];
  double wall_s_[2] = {0.0, 0.0};
};

// Workload entry points (one file each).
void run_churn(const Options& opt, Report* rep);
void run_sweep(const Options& opt, Report* rep);
void run_route_mesh(const Options& opt, Report* rep);

}  // namespace perfbench
