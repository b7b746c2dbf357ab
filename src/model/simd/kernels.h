#pragma once

// Internal per-level kernel entry points behind simd/dispatch.h. The AVX2
// definitions live in a translation unit compiled with -mavx2 (and nothing
// stronger: FMA contraction would change the bits); they are only declared
// here and only called after a runtime CPUID check, so the rest of the
// binary carries no AVX2 instructions. Other architectures run the scalar
// reference.

#include <cstddef>
#include <cstdint>

namespace cronets::model {
struct TcpModelParams;
}

namespace cronets::model::simd::detail {

void ar1_weighted_sums_scalar(int nf, const std::uint64_t* streams,
                              const std::int64_t* ns, const int* horizons,
                              const double* a, double* acc);
void pftk_batch_scalar(std::size_t n, const double* rtt_ms, const double* loss,
                       const double* residual_bps, const double* capacity_bps,
                       const double* rwnd_bytes, const TcpModelParams& p,
                       double* out_bps);
int min_plus_argmin_scalar(std::size_t n, const double* a, const double* b,
                           const int* next, int exclude);

#if defined(__x86_64__) || defined(_M_X64)
void ar1_weighted_sums_avx2(int nf, const std::uint64_t* streams,
                            const std::int64_t* ns, const int* horizons,
                            const double* a, double* acc);
void pftk_batch_avx2(std::size_t n, const double* rtt_ms, const double* loss,
                     const double* residual_bps, const double* capacity_bps,
                     const double* rwnd_bytes, const TcpModelParams& p,
                     double* out_bps);
int min_plus_argmin_avx2(std::size_t n, const double* a, const double* b,
                         const int* next, int exclude);
#endif

}  // namespace cronets::model::simd::detail
