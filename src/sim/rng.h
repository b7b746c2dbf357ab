#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cronets::sim {

/// Deterministic random source. All stochastic behaviour in the simulator is
/// funnelled through one of these so that a (seed) pair fully reproduces a
/// run. Components should derive sub-streams via `fork()` to stay decoupled
/// from each other's consumption order.
///
/// The engine is MT19937-64: `next_u64()` returns the standard 64-bit
/// Mersenne Twister's sequence for `seed`, bit for bit. It is seeded and
/// twisted on demand, because most streams are short: a per-pair or
/// per-edge noise stream reads 3 to ~100 outputs, where the standard
/// engine seeds 312 state words and twists 312 more before its first.
/// The distributions compute exactly what libstdc++ 12 computes from the
/// same engine, draw for draw, so a seed means one world on any standard
/// library, given the same libm `log`, `exp` and `pow` and a compiler with
/// `unsigned __int128`.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) { x_[0] = seed; }

  // Copies carry only the seeded words; the rest is never read before the
  // seed recurrence reaches it.
  Rng(const Rng& o) { *this = o; }
  Rng& operator=(const Rng& o) {
    if (this != &o) {
      std::copy_n(o.x_, o.seeded_, x_);
      pos_ = o.pos_;
      twisted_ = o.twisted_;
      seeded_ = o.seeded_;
    }
    return *this;
  }

  /// Independent child stream; deterministic function of parent state.
  Rng fork() { return Rng{next_u64()}; }

  std::uint64_t next_u64() {
    if (pos_ == twisted_) refill();
    std::uint64_t z = x_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    return z ^ (z >> 43);
  }

  /// Uniform double in [0, 1): one draw scaled by 2^-64, kept below 1.
  double uniform() {
    const double u = static_cast<double>(next_u64()) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;
  }

  double uniform(double lo, double hi) {
    assert(lo <= hi);
    return uniform() * (hi - lo) + lo;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    return static_cast<std::int64_t>(bounded(span) +
                                     static_cast<std::uint64_t>(lo));
  }

  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  double exponential(double mean) {
    const double lambda = 1.0 / mean;
    assert(lambda > 0.0);
    return -std::log(1.0 - uniform()) / lambda;
  }

  /// Normal draw by Marsaglia's polar method; each call draws a fresh pair
  /// and returns its second coordinate. Stdev 0 returns `mean` after
  /// drawing the pair, so the engine advances exactly as for any stdev.
  double normal(double mean, double stdev) {
    assert(stdev >= 0.0);
    double x, y, r2;
    do {
      x = 2.0 * uniform() - 1.0;
      y = 2.0 * uniform() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    if (stdev == 0.0) return mean;
    return y * std::sqrt(-2 * std::log(r2) / r2) * stdev + mean;
  }

  double lognormal(double mu, double sigma) {
    return std::exp(sigma * normal(0.0, 1.0) + mu);
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
    return static_cast<std::size_t>(bounded(size - 1));
  }

  /// Fisher–Yates in libstdc++'s order: element i = 1, 2, ... swaps with a
  /// uniform position in [0, i]. An even size does i = 1 alone; then each
  /// pair (i, i + 1) takes both positions from one draw x in
  /// [0, (i + 1)(i + 2)): x / (i + 2) for i and x % (i + 2) for i + 1.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    const std::size_t n = v.size();
    if (n == 0) return;
    assert(n < (std::uint64_t{1} << 32));  // (i + 1)(i + 2) fits 64 bits
    using std::swap;
    std::size_t i = 1;
    if (n % 2 == 0) {
      swap(v[1], v[bounded(1)]);
      i = 2;
    }
    for (; i != n; i += 2) {
      const std::uint64_t b = i + 2;
      const std::uint64_t x = bounded((i + 1) * b - 1);
      swap(v[i], v[x / b]);
      swap(v[i + 1], v[x % b]);
    }
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
  static constexpr unsigned kN = 312, kM = 156;

  /// Uniform in [0, span]: Lemire's multiply-shift on the 128-bit product
  /// of a draw and span + 1, redrawing while the low word is below
  /// 2^64 mod (span + 1). The full 64-bit span takes one raw draw.
  std::uint64_t bounded(std::uint64_t span) {
    if (span == ~std::uint64_t{0}) return next_u64();
    using Wide = unsigned __int128;
    const std::uint64_t n = span + 1;
    Wide p = Wide{next_u64()} * n;
    if (static_cast<std::uint64_t>(p) < n) {
      const std::uint64_t threshold = -n % n;
      while (static_cast<std::uint64_t>(p) < threshold) {
        p = Wide{next_u64()} * n;
      }
    }
    return static_cast<std::uint64_t>(p >> 64);
  }

  /// Readies x_[pos_]. The first block twists in chunks of 8, 16, 32, ...
  /// words, after extending the seed recurrence to the x[k + kM] words the
  /// chunk reads; once a block is spent, the next twists whole.
  void refill() {
    if (twisted_ == kN) {
      twist(0, kN);
      pos_ = 0;
      return;
    }
    const unsigned end = std::min(std::max(2u * twisted_, 8u), kN);
    const unsigned seeded = std::min(end + kM, kN);
    // The recurrence is one serial chain; carry it in a register, not
    // through a store and reload of the word just written.
    std::uint64_t x = x_[seeded_ - 1];
    for (unsigned i = seeded_; i < seeded; ++i) {
      x = 6364136223846793005ull * (x ^ (x >> 62)) + i;
      x_[i] = x;
    }
    seeded_ = static_cast<std::uint16_t>(seeded);
    twist(twisted_, end);
    twisted_ = static_cast<std::uint16_t>(end);
  }

  /// The standard twist of words [b, e), in place and in its order: word
  /// k < kN - kM reads x[k + kM] untwisted, later words read
  /// x[k + kM - kN] twisted, and the last word reads the twisted x[0].
  void twist(unsigned b, unsigned e) {
    for (unsigned k = b; k < std::min(e, kN - kM); ++k) {
      x_[k] = x_[k + kM] ^ mix(x_[k], x_[k + 1]);
    }
    for (unsigned k = std::max(b, kN - kM); k < std::min(e, kN - 1); ++k) {
      x_[k] = x_[k + kM - kN] ^ mix(x_[k], x_[k + 1]);
    }
    if (e == kN) x_[kN - 1] = x_[kM - 1] ^ mix(x_[kN - 1], x_[0]);
  }

  /// Upper 33 bits of `hi` and lower 31 of `lo`, shifted and conditionally
  /// xored with the twist matrix.
  static std::uint64_t mix(std::uint64_t hi, std::uint64_t lo) {
    const std::uint64_t y = (hi & ~0x7fffffffull) | (lo & 0x7fffffffull);
    return (y >> 1) ^ ((y & 1) ? 0xb5026f5aa96619e9ull : 0);
  }

  std::uint64_t x_[kN];
  std::uint16_t pos_ = 0;      ///< next word of the block to temper
  std::uint16_t twisted_ = 0;  ///< words of the block twisted so far
  std::uint16_t seeded_ = 1;   ///< words the seed recurrence has filled
};

static_assert(sizeof(Rng) == 2504, "an Rng is as large as the standard engine");

}  // namespace cronets::sim
