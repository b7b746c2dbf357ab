#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace cronets::sim {

/// Deterministic random source. All stochastic behaviour in the simulator is
/// funnelled through one of these so that a (seed) pair fully reproduces a
/// run. Components should derive sub-streams via `fork()` to stay decoupled
/// from each other's consumption order.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Independent child stream; deterministic function of parent state.
  Rng fork() { return Rng{engine_()}; }

  std::uint64_t next_u64() { return engine_(); }

  /// Uniform double in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>{0.0, 1.0}(engine_);
  }

  double uniform(double lo, double hi) {
    assert(lo <= hi);
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }

  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  double exponential(double mean) {
    assert(mean > 0);
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }

  /// Normal draw; stdev 0 returns `mean`. std::normal_distribution
  /// requires stdev > 0, so that case draws one standard normal and
  /// discards it: the engine advances exactly as for any other stdev.
  double normal(double mean, double stdev) {
    if (stdev == 0.0) {
      std::normal_distribution<double>{}(engine_);
      return mean;
    }
    return std::normal_distribution<double>{mean, stdev}(engine_);
  }

  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>{mu, sigma}(engine_);
  }

  /// Pareto with scale x_m > 0 and shape alpha > 0.
  double pareto(double x_m, double alpha) {
    assert(x_m > 0 && alpha > 0);
    double u = 1.0 - uniform();  // (0,1]
    return x_m / std::pow(u, 1.0 / alpha);
  }

  /// Pick a uniformly random element index of a non-empty container size.
  std::size_t index(std::size_t size) {
    assert(size > 0);
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(size) - 1));
  }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  /// Weighted index draw; weights need not be normalised.
  std::size_t weighted_index(const std::vector<double>& weights) {
    assert(!weights.empty());
    double total = 0.0;
    for (double w : weights) total += w;
    assert(total > 0.0);
    double r = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      r -= weights[i];
      if (r <= 0.0) return i;
    }
    return weights.size() - 1;
  }

 private:
  std::mt19937_64 engine_;
};

}  // namespace cronets::sim
