#pragma once

// Outside-in span recorder for the benchmark. Spans are opened and closed
// only in the benchmark's own files, around calls into the library's
// public functions; they nest, and a span's self time is its duration
// minus the time its child spans cover, so the self times of every span
// under one root add up to the root's wall time exactly. Totals per span
// name stay in memory; a bounded sample of raw spans is kept for the trace
// file written at exit.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of `v` (reorders it); 0 when empty.
inline double percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  const std::size_t k = std::min(
      v->size() - 1, static_cast<std::size_t>(p * static_cast<double>(v->size())));
  std::nth_element(v->begin(), v->begin() + static_cast<std::ptrdiff_t>(k),
                   v->end());
  return (*v)[k];
}

class Tracer {
 public:
  struct Kind {
    std::string name;
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    bool keep_durations = false;
    std::vector<double> durations_ns;
    int parent = -1;  ///< kind of the enclosing span (-1: a root)
  };

  /// Register a span name; returns its id. `keep_durations` keeps every
  /// duration (for percentiles) — use it only for low-rate spans.
  int kind(const std::string& name, bool keep_durations = false) {
    kinds_.push_back(Kind{name, 0, 0, 0, keep_durations, {}, -1});
    return static_cast<int>(kinds_.size()) - 1;
  }

  /// Spans are recorded only while enabled; begin/end pairs must not
  /// straddle a toggle.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Drop everything recorded so far (kinds stay registered).
  void reset() {
    for (Kind& k : kinds_) {
      k.count = 0;
      k.total_ns = 0;
      k.self_ns = 0;
      k.durations_ns.clear();
    }
    sample_.clear();
    seen_ = 0;
  }

  void begin(int k) {
    if (!enabled_) return;
    stack_.push_back(Open{k, now_ns(), 0});
  }

  void end() {
    if (!enabled_) return;
    const std::int64_t t = now_ns();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = t - o.start;
    Kind& kd = kinds_[static_cast<std::size_t>(o.kind)];
    ++kd.count;
    kd.total_ns += dur;
    kd.self_ns += dur - o.child_ns;
    if (kd.keep_durations) kd.durations_ns.push_back(static_cast<double>(dur));
    const int parent = stack_.empty() ? -1 : stack_.back().kind;
    kd.parent = parent;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    // Keep the first spans of each run plus every 4096th after them.
    if (seen_++ % 4096 == 0 || sample_.size() < 2048) {
      if (sample_.size() < kMaxSample) sample_.push_back(Raw{o.kind, parent, o.start, t});
    }
  }

  const Kind& get(int k) const { return kinds_[static_cast<std::size_t>(k)]; }

  /// Write span totals and the raw-span sample as one JSON document. A span
  /// name always opens under the same parent, recorded with its totals.
  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu,\n \"spans\": [",
                 workload.c_str(), static_cast<unsigned long long>(seed));
    for (std::size_t i = 0; i < kinds_.size(); ++i) {
      const Kind& k = kinds_[i];
      std::fprintf(f,
                   "%s\n  {\"name\": \"%s\", \"parent\": \"%s\", \"count\": %llu, "
                   "\"total_ns\": %lld, \"self_ns\": %lld}",
                   i ? "," : "", k.name.c_str(),
                   k.parent < 0 ? "" : kinds_[static_cast<std::size_t>(k.parent)].name.c_str(),
                   static_cast<unsigned long long>(k.count),
                   static_cast<long long>(k.total_ns),
                   static_cast<long long>(k.self_ns));
    }
    std::fprintf(f, "],\n \"sample\": [");
    for (std::size_t i = 0; i < sample_.size(); ++i) {
      const Raw& r = sample_[i];
      std::fprintf(f, "%s\n  [\"%s\", \"%s\", %lld, %lld]", i ? "," : "",
                   kinds_[static_cast<std::size_t>(r.kind)].name.c_str(),
                   r.parent < 0 ? ""
                                : kinds_[static_cast<std::size_t>(r.parent)].name.c_str(),
                   static_cast<long long>(r.start), static_cast<long long>(r.end));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    int kind;
    std::int64_t start;
    std::int64_t child_ns;
  };
  struct Raw {
    int kind;
    int parent;
    std::int64_t start;
    std::int64_t end;
  };
  static constexpr std::size_t kMaxSample = 16384;

  bool enabled_ = false;
  std::vector<Kind> kinds_;
  std::vector<Open> stack_;
  std::vector<Raw> sample_;
  std::uint64_t seen_ = 0;
};

/// Scoped span: begin on construction, end on destruction.
class Span {
 public:
  Span(Tracer& t, int kind) : t_(t) { t_.begin(kind); }
  ~Span() { t_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
};

}  // namespace perfbench
