#include "model/simd/dispatch.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "model/simd/kernels.h"

namespace cronets::model::simd {

namespace {

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Level widest_available() {
  return cpu_has_avx2() ? Level::kAvx2 : Level::kScalar;
}

Level parse_env_level() {
  const char* v = std::getenv("CRONETS_SIMD");
  if (v == nullptr || *v == '\0' || std::strcmp(v, "auto") == 0) {
    return widest_available();
  }
  if (std::strcmp(v, "scalar") == 0) return Level::kScalar;
  if (std::strcmp(v, "avx2") == 0) {
    if (level_available(Level::kAvx2)) return Level::kAvx2;
    std::fprintf(stderr,
                 "CRONETS_SIMD=%s: level not available on this machine; "
                 "using %s\n",
                 v, level_name(widest_available()));
    return widest_available();
  }
  std::fprintf(stderr,
               "CRONETS_SIMD=%s: unrecognized (want auto|avx2|scalar); "
               "using %s\n",
               v, level_name(widest_available()));
  return widest_available();
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kAvx2:
      return "avx2";
    case Level::kScalar:
    default:
      return "scalar";
  }
}

bool level_available(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
      return cpu_has_avx2();
  }
  return false;
}

Level active_level() {
  static const Level cached = parse_env_level();
  return cached;
}

void ar1_weighted_sums(Level level, int nf, const std::uint64_t* streams,
                       const std::int64_t* ns, const int* horizons,
                       const double* a, double* acc) {
  switch (level) {
#if defined(__x86_64__) || defined(_M_X64)
    case Level::kAvx2:
      detail::ar1_weighted_sums_avx2(nf, streams, ns, horizons, a, acc);
      return;
#endif
    default:
      detail::ar1_weighted_sums_scalar(nf, streams, ns, horizons, a, acc);
      return;
  }
}

void pftk_batch(Level level, std::size_t n, const double* rtt_ms,
                const double* loss, const double* residual_bps,
                const double* capacity_bps, const double* rwnd_bytes,
                const TcpModelParams& p, double* out_bps) {
  switch (level) {
#if defined(__x86_64__) || defined(_M_X64)
    case Level::kAvx2:
      detail::pftk_batch_avx2(n, rtt_ms, loss, residual_bps, capacity_bps,
                              rwnd_bytes, p, out_bps);
      return;
#endif
    default:
      detail::pftk_batch_scalar(n, rtt_ms, loss, residual_bps, capacity_bps,
                                rwnd_bytes, p, out_bps);
      return;
  }
}

int min_plus_argmin(Level level, std::size_t n, const double* a,
                    const double* b, const int* next, int exclude) {
  switch (level) {
#if defined(__x86_64__) || defined(_M_X64)
    case Level::kAvx2:
      return detail::min_plus_argmin_avx2(n, a, b, next, exclude);
#endif
    default:
      return detail::min_plus_argmin_scalar(n, a, b, next, exclude);
  }
}

}  // namespace cronets::model::simd
