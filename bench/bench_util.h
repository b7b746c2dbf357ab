#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/stats.h"
#include "model/simd/dispatch.h"
#include "sim/env.h"
#include "wkld/world.h"

namespace cronets::bench {

/// Seed shared by every figure bench so the same generated Internet
/// underlies the whole evaluation (override with CRONETS_SEED).
inline std::uint64_t world_seed() {
  return sim::env_u64("CRONETS_SEED", 42);
}

/// Set CRONETS_QUICK=1 to shrink the slow (packet-level) benches.
inline bool quick_mode() { return sim::env_flag("CRONETS_QUICK"); }

inline void print_header(const char* fig, const char* title) {
  std::printf("==================================================================\n");
  std::printf("%s — %s\n", fig, title);
  std::printf("==================================================================\n");
}

/// Print a CDF as (x, F(x)) rows on a log-spaced grid, like the paper's
/// log-x CDF figures.
inline void print_cdf_log(const analysis::Cdf& cdf, const char* name, double lo,
                          double hi, int points = 25) {
  std::printf("-- CDF: %s (n=%zu)\n", name, cdf.size());
  std::printf("%12s %8s\n", "x", "CDF");
  for (int i = 0; i <= points; ++i) {
    const double x = lo * std::pow(hi / lo, static_cast<double>(i) / points);
    std::printf("%12.4g %8.3f\n", x, cdf.fraction_leq(x));
  }
}

struct PaperCheck {
  std::string metric;
  double paper;
  double measured;
};

/// Print the paper-vs-measured summary block every bench ends with; these
/// rows are what EXPERIMENTS.md records.
inline void print_paper_checks(const std::vector<PaperCheck>& checks) {
  std::printf("\n-- paper vs measured --------------------------------------------\n");
  std::printf("%-52s %10s %10s\n", "metric", "paper", "measured");
  for (const auto& c : checks) {
    std::printf("%-52s %10.3f %10.3f\n", c.metric.c_str(), c.paper, c.measured);
  }
  std::printf("\n");
}

/// Wall-clock + throughput tracker for a bench's measurement phase, plus
/// machine-readable output: `finish()` writes bench_results/<name>.json
/// with the timing, pair counts, and paper-check rows, so CI can archive
/// the speedup trajectory (the text report stays the human-facing
/// artifact). The JSON `checks` block depends only on the world seed —
/// never on thread count or timing — so it doubles as the determinism
/// fingerprint for the parallel engine.
///
/// Shrunk runs (`--smoke` / CRONETS_QUICK) write
/// bench_results/smoke_<name>.json instead, so a smoke pass can never
/// clobber a full-run result (the bench gate, tools/check_bench_regress.py,
/// compares smoke runs against the committed bench/baselines/).
class BenchRun {
 public:
  explicit BenchRun(std::string name, bool smoke = quick_mode())
      : name_(std::move(name)),
        smoke_(smoke),
        start_(std::chrono::steady_clock::now()) {}

  /// Record how many endpoint pairs the measurement phase swept.
  void set_pairs(long pairs) { pairs_ = pairs; }
  /// Attach a machine-performance metric (wall-clock latencies, rates) to
  /// the JSON under "extra". Unlike `checks`, extra values may depend on
  /// the machine and thread count — keep seed-determined results in checks.
  void add_extra(const std::string& key, double value) {
    extra_.emplace_back(key, value);
  }
  /// Stop the measurement clock (call right after the sweep; printing and
  /// aggregation below it are excluded). Without an explicit call,
  /// `finish()` stops it.
  void stop_clock() {
    if (wall_s_ < 0) {
      wall_s_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start_)
                    .count();
    }
  }

  /// Measured wall seconds (valid after stop_clock()).
  double wall_seconds() const { return wall_s_; }

  void finish(const std::vector<PaperCheck>& checks) {
    stop_clock();
    print_paper_checks(checks);
    std::printf("-- timing: %.3f s wall, %ld pairs, %.0f pairs/s, %d threads\n\n",
                wall_s_, pairs_, pairs_ > 0 ? pairs_ / wall_s_ : 0.0, threads());
    write_json(checks);
  }

 private:
  static int threads() {
    return sim::Parallelism{}.resolved();
  }

  static std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  void write_json(const std::vector<PaperCheck>& checks) const {
    std::error_code ec;
    std::filesystem::create_directories("bench_results", ec);
    const std::string path =
        std::string("bench_results/") + (smoke_ ? "smoke_" : "") + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;  // read-only checkout: the text report already printed
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", json_escape(name_).c_str());
    std::fprintf(f, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(world_seed()));
    std::fprintf(f, "  \"threads\": %d,\n", threads());
    std::fprintf(f, "  \"simd\": \"%s\",\n",
                 model::simd::level_name(model::simd::active_level()));
    std::fprintf(f, "  \"smoke\": %s,\n", smoke_ ? "true" : "false");
    std::fprintf(f, "  \"quick\": %s,\n", quick_mode() ? "true" : "false");
    std::fprintf(f, "  \"wall_s\": %.6f,\n", wall_s_);
    std::fprintf(f, "  \"pairs\": %ld,\n", pairs_);
    std::fprintf(f, "  \"pairs_per_s\": %.3f,\n",
                 pairs_ > 0 && wall_s_ > 0 ? pairs_ / wall_s_ : 0.0);
    if (!extra_.empty()) {
      std::fprintf(f, "  \"extra\": {");
      for (std::size_t i = 0; i < extra_.size(); ++i) {
        std::fprintf(f, "%s\n    \"%s\": %.17g", i ? "," : "",
                     json_escape(extra_[i].first).c_str(), extra_[i].second);
      }
      std::fprintf(f, "\n  },\n");
    }
    std::fprintf(f, "  \"checks\": [");
    for (std::size_t i = 0; i < checks.size(); ++i) {
      std::fprintf(f, "%s\n    {\"metric\": \"%s\", \"paper\": %.17g, \"measured\": %.17g}",
                   i ? "," : "", json_escape(checks[i].metric).c_str(),
                   checks[i].paper, checks[i].measured);
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
  }

  std::string name_;
  bool smoke_ = false;
  std::chrono::steady_clock::time_point start_;
  double wall_s_ = -1.0;
  long pairs_ = 0;
  std::vector<std::pair<std::string, double>> extra_;
};

}  // namespace cronets::bench
