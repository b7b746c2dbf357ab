// AVX2 measurement kernels. This translation unit is compiled with -mavx2
// and *only* -mavx2 — no -mfma: FMA contraction of a*b+c would change the
// rounding of the PFTK denominator and break the bitwise SIMD == scalar
// guarantee. Entry is guarded by a runtime CPUID check in dispatch.cc, so
// no AVX2 instruction executes on machines without the feature.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <limits>

#include "model/flow_model.h"
#include "model/simd/kernels.h"

namespace cronets::model::simd::detail {

namespace {

// Low 64 bits of a 64x64 multiply per lane (AVX2 has no 64-bit vector
// multiply): lo(a)*lo(b) + ((hi(a)*lo(b) + lo(a)*hi(b)) << 32).
inline __m256i mul_lo64(__m256i a, __m256i b) {
  const __m256i lo_lo = _mm256_mul_epu32(a, b);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b),
                                         _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo_lo, _mm256_slli_epi64(cross, 32));
}

// sim::splitmix64, four lanes at a time. Integer math: exact by definition.
inline __m256i splitmix64x4(__m256i x) {
  x = _mm256_add_epi64(x, _mm256_set1_epi64x(0x9e3779b97f4a7c15ull));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 30));
  x = mul_lo64(x, _mm256_set1_epi64x(0xbf58476d1ce4e5b9ull));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 27));
  x = mul_lo64(x, _mm256_set1_epi64x(0x94d049bb133111ebull));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

// Exact uint64 -> double for values < 2^53 (anything right-shifted by 11),
// matching static_cast<double> bit-for-bit: both produce the (unique) exact
// representation. Split into 32-bit halves, rebase each off 2^52 via the
// exponent trick, and recombine — every step exact.
inline __m256d u64_to_double(__m256i v) {
  const __m256d two52 = _mm256_set1_pd(0x1.0p52);
  const __m256i lo = _mm256_and_si256(v, _mm256_set1_epi64x(0xffffffffll));
  const __m256i hi = _mm256_srli_epi64(v, 32);
  const __m256d dlo = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(lo, _mm256_castpd_si256(two52))),
      two52);
  const __m256d dhi = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(hi, _mm256_castpd_si256(two52))),
      two52);
  return _mm256_add_pd(_mm256_mul_pd(dhi, _mm256_set1_pd(0x1.0p32)), dlo);
}

// Four lanes of hash_centered(hash_combine(stream, b)). The additive
// constant of hash_combine depends only on `stream`, so the caller hoists
// it into `add`; the two splitmix64 rounds (one inside hash_combine, one
// inside hash_u01) and the affine map to [-sqrt3, sqrt3] mirror the scalar
// expressions operation for operation.
inline __m256d centered_lanes(__m256i stream, __m256i add, __m256i b) {
  const __m256i key = splitmix64x4(_mm256_xor_si256(stream, _mm256_add_epi64(b, add)));
  const __m256i bits = _mm256_srli_epi64(splitmix64x4(key), 11);
  const __m256d u01 = _mm256_mul_pd(
      _mm256_add_pd(u64_to_double(bits), _mm256_set1_pd(0.5)),
      _mm256_set1_pd(0x1.0p-53));
  return _mm256_mul_pd(_mm256_sub_pd(u01, _mm256_set1_pd(0.5)),
                       _mm256_set1_pd(3.4641016151377544));
}

}  // namespace

void ar1_weighted_sums_avx2(int nf, const std::uint64_t* streams,
                            const std::int64_t* ns, const int* horizons,
                            const double* a, double* acc) {
  int maxh = 0;
  for (int k = 0; k < nf; ++k) maxh = std::max(maxh, horizons[k]);
  const __m256i vs =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(streams));
  // hash_combine's a-dependent terms, per lane this time (four streams).
  const __m256i add = _mm256_add_epi64(
      _mm256_set1_epi64x(static_cast<long long>(0x9e3779b97f4a7c15ull)),
      _mm256_add_epi64(_mm256_slli_epi64(vs, 6), _mm256_srli_epi64(vs, 2)));
  const __m256i vn = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ns));
  const __m256i vh = _mm256_setr_epi64x(horizons[0], horizons[1], horizons[2],
                                        horizons[3]);
  const __m256d va = _mm256_loadu_pd(a);
  // One vector add per j advances all four lanes' serial chains: the fold
  // stays latency-bound, but on 4 fields at once. Each lane's weight runs
  // the scalar w *= a recurrence; a lane past its horizon is masked to an
  // exact +0.0 add (a bitwise no-op — see dispatch.h).
  __m256d w = _mm256_set1_pd(1.0);
  __m256d accv = _mm256_setzero_pd();
  for (int j = 0; j < maxh; ++j) {
    const __m256i vj = _mm256_set1_epi64x(j);
    const __m256d innov = centered_lanes(vs, add, _mm256_sub_epi64(vn, vj));
    const __m256d live = _mm256_castsi256_pd(_mm256_cmpgt_epi64(vh, vj));
    accv = _mm256_add_pd(accv, _mm256_and_pd(_mm256_mul_pd(w, innov), live));
    w = _mm256_mul_pd(w, va);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, accv);
  for (int k = 0; k < nf; ++k) acc[k] = lanes[k];
}

void pftk_batch_avx2(std::size_t n, const double* rtt_ms, const double* loss,
                     const double* residual_bps, const double* capacity_bps,
                     const double* rwnd_bytes, const TcpModelParams& p,
                     double* out_bps) {
  const __m256d c1e3 = _mm256_set1_pd(1e3);
  const __m256d rtt_floor = _mm256_set1_pd(1e-4);
  const __m256d loss_gate = _mm256_set1_pd(1e-9);
  const __m256d vb = _mm256_set1_pd(p.b);
  const __m256d numer = _mm256_set1_pd(p.aggressiveness * p.mss);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vloss = _mm256_loadu_pd(loss + i);
    const __m256d rtt = _mm256_max_pd(
        _mm256_div_pd(_mm256_loadu_pd(rtt_ms + i), c1e3), rtt_floor);
    // Loss-bound term, evaluated on every lane with the scalar expression
    // shape; lanes at or below the loss gate blend to the 1e18 sentinel
    // (their zero denominator yields an IEEE inf, discarded by the blend).
    const __m256d bp = _mm256_mul_pd(vb, vloss);
    const __m256d t0 = _mm256_max_pd(_mm256_set1_pd(0.2),
                                     _mm256_mul_pd(_mm256_set1_pd(2.0), rtt));
    const __m256d sq1 = _mm256_sqrt_pd(
        _mm256_div_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), bp), _mm256_set1_pd(3.0)));
    const __m256d sq2 = _mm256_mul_pd(
        _mm256_set1_pd(3.0),
        _mm256_sqrt_pd(_mm256_div_pd(_mm256_mul_pd(_mm256_set1_pd(3.0), bp),
                                     _mm256_set1_pd(8.0))));
    const __m256d poly = _mm256_add_pd(
        _mm256_set1_pd(1.0),
        _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(32.0), vloss), vloss));
    const __m256d denom = _mm256_add_pd(
        _mm256_mul_pd(rtt, sq1),
        _mm256_mul_pd(
            _mm256_mul_pd(_mm256_mul_pd(t0, _mm256_min_pd(sq2, _mm256_set1_pd(1.0))),
                          vloss),
            poly));
    const __m256d gated = _mm256_cmp_pd(vloss, loss_gate, _CMP_GT_OQ);
    const __m256d loss_bound = _mm256_blendv_pd(
        _mm256_set1_pd(1e18), _mm256_div_pd(numer, denom), gated);
    const __m256d wnd_bound = _mm256_div_pd(_mm256_loadu_pd(rwnd_bytes + i), rtt);
    const __m256d cap = _mm256_div_pd(
        _mm256_min_pd(_mm256_loadu_pd(residual_bps + i),
                      _mm256_loadu_pd(capacity_bps + i)),
        _mm256_set1_pd(8.0));
    const __m256d best =
        _mm256_min_pd(_mm256_min_pd(loss_bound, wnd_bound), cap);
    _mm256_storeu_pd(out_bps + i, _mm256_mul_pd(_mm256_set1_pd(8.0), best));
  }
  if (i < n) {
    pftk_batch_scalar(n - i, rtt_ms + i, loss + i, residual_bps + i,
                      capacity_bps + i, rwnd_bytes + i, p, out_bps + i);
  }
}

int min_plus_argmin_avx2(std::size_t n, const double* a, const double* b,
                         const int* next, int exclude) {
  const double inf = std::numeric_limits<double>::infinity();
  const __m256d vinf = _mm256_set1_pd(inf);
  const __m128i vex = _mm_set1_epi32(exclude);
  // Four terms a[j] + b[j], +inf where next[j] == exclude: one IEEE add
  // per lane, the scalar add's exact bits.
  const auto terms = [&](std::size_t j) {
    const __m256d sum =
        _mm256_add_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j));
    const __m256i hit = _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(next + j)), vex));
    return _mm256_blendv_pd(sum, vinf, _mm256_castsi256_pd(hit));
  };
  // Pass 1: the minimum term, over two accumulators. MINPD is an ordered
  // compare-and-select; no term is NaN, so it picks exactly what the
  // scalar `<` picks.
  __m256d m0 = vinf;
  __m256d m1 = vinf;
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    m0 = _mm256_min_pd(m0, terms(j));
    m1 = _mm256_min_pd(m1, terms(j + 4));
  }
  if (j + 4 <= n) {
    m0 = _mm256_min_pd(m0, terms(j));
    j += 4;
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, _mm256_min_pd(m0, m1));
  double best = inf;
  for (const double v : lanes) best = v < best ? v : best;
  for (std::size_t k = j; k < n; ++k) {
    const double v = next[k] == exclude ? inf : a[k] + b[k];
    best = v < best ? v : best;
  }
  if (!(best < inf)) return -1;
  // Pass 2: the first index holding it (an ordered equality, so a masked
  // +inf lane never matches a finite minimum).
  const __m256d target = _mm256_set1_pd(best);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const int eq =
        _mm256_movemask_pd(_mm256_cmp_pd(terms(k), target, _CMP_EQ_OQ));
    if (eq != 0) return static_cast<int>(k) + __builtin_ctz(eq);
  }
  // Not in a full vector, so in the tail.
  for (; k < n; ++k) {
    if (next[k] != exclude && a[k] + b[k] == best) break;
  }
  return static_cast<int>(k);
}

}  // namespace cronets::model::simd::detail

#endif  // x86-64
