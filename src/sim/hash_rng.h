#pragma once

#include <cstdint>

namespace cronets::sim {

/// Counter-based (stateless) random primitives. Unlike `Rng`, which owns a
/// sequential engine, these map a key directly to a draw, so any thread can
/// evaluate any draw in any order and get the same bits — the foundation of
/// the parallel measurement engine's determinism guarantee.

/// Fibonacci-hashing finalizer (splitmix64); full-avalanche on 64 bits.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-sensitive combination of two keys into one stream id.
inline std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return splitmix64(a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2)));
}

/// Uniform double in (0, 1) from a key (never exactly 0 or 1).
inline double hash_u01(std::uint64_t key) {
  return (static_cast<double>(splitmix64(key) >> 11) + 0.5) * 0x1.0p-53;
}

/// Zero-mean, unit-variance draw from a key. Uniform on
/// [-sqrt(3), sqrt(3)] — the flow model only consumes these inside long
/// exponentially-weighted sums, whose totals are Gaussian by CLT, so the
/// cheap flat innovation is statistically equivalent to N(0,1) there.
inline double hash_centered(std::uint64_t key) {
  return (hash_u01(key) - 0.5) * 3.4641016151377544;  // 2*sqrt(3)
}

/// Canonical packed (src, dst) endpoint-pair key: the 64-bit id every
/// per-pair table keys on (the broker's pair directory, batch plans,
/// route tables). Feed through splitmix64 when a uniform hash of the pair
/// is needed.
inline std::uint64_t pack_pair(int src, int dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

/// Seed of the measurement-noise stream for one (src, dst, time) pair.
/// Every stochastic draw inside one pair measurement comes from an `Rng`
/// seeded with this, which is what makes results independent of the order
/// (and thread) in which pairs are measured.
inline std::uint64_t pair_seed(std::uint64_t world_seed, int src, int dst,
                               std::int64_t t_ns) {
  std::uint64_t h = hash_combine(world_seed, static_cast<std::uint64_t>(src));
  h = hash_combine(h, static_cast<std::uint64_t>(dst));
  return hash_combine(h, static_cast<std::uint64_t>(t_ns));
}

}  // namespace cronets::sim
