#pragma once

#include <cstddef>
#include <cstdint>

namespace cronets::model {
struct TcpModelParams;  // flow_model.h
}

namespace cronets::model::simd {

/// Instruction-set level of the vectorized measurement kernels. The level
/// is picked once per process (see active_level) and every kernel has a
/// portable scalar fallback, so a binary built with the AVX2 translation
/// unit still runs — and produces identical bits — on a machine without
/// it.
enum class Level : int {
  kScalar = 0,  ///< portable reference loops (always available)
  kAvx2 = 1,    ///< 4-wide doubles / 4x64-bit hashing (x86-64 with AVX2)
};

/// Name used in logs and bench JSON ("scalar" / "avx2").
const char* level_name(Level level);

/// Whether `level` can execute on this machine (compile-time ISA support
/// AND a runtime CPUID check for AVX2).
bool level_available(Level level);

/// The process-wide kernel level: the `CRONETS_SIMD` environment knob
/// (auto | avx2 | scalar) clamped to what the machine supports.
/// "auto" (or unset) picks the widest available level; an unavailable or
/// unrecognized request warns once on stderr and falls back to auto.
/// Cached after the first call.
Level active_level();

/// Exponentially-weighted AR(1) folds for a *group* of up to four link
/// fields, one SIMD lane per field:
///   acc[k] = sum_{j=0}^{horizons[k]-1} wt[4*j + k] * innov_k(j)
/// where innov_k(j) is the field's AR(1) innovation
///   sim::hash_centered(sim::hash_combine(streams[k], uint64(ns[k] - j))).
/// `wt` is the lane-transposed weight matrix: row j holds the four fields'
/// j-th exponential weights, zero-padded past each field's own horizon,
/// `maxh` rows total (maxh = max horizon of the group, <= 64).
///
/// The innovations are bitwise identical across levels: the hash is
/// integer math and the uint64 -> double conversion plus affine map are
/// exact IEEE operations. Each lane's accumulation runs in strict j order —
/// the identical serial chain the scalar per-field fold executes — and a
/// zero-padded term contributes an exact +/-0.0 (the accumulator is never
/// -0.0, so adding it is a bitwise no-op). Hence acc[k] is bitwise
/// identical to the scalar fold at every level; the win is four
/// independent latency-bound chains advancing per vector add instead of
/// one. streams/ns/horizons must have four entries (pad spare lanes with
/// any valid field); only acc[0..nf) is meaningful.
void ar1_weighted_sums(Level level, int nf, const std::uint64_t* streams,
                       const std::int64_t* ns, const int* horizons,
                       const double* wt, int maxh, double* acc);

/// Vectorized flat-array PFTK: out_bps[i] bitwise identical to
/// pftk_throughput_bps(rtt_ms[i], loss[i], residual_bps[i],
/// capacity_bps[i], p with rwnd_bytes = rwnd_bytes[i]) at every level.
/// The scalar `loss > 1e-9` branch becomes a lane blend; sqrt / min / max /
/// div are correctly-rounded IEEE operations in every lane, so the blend
/// cannot change bits. Lanes where loss <= 1e-9 divide by a denominator of
/// zero before the blend discards the quotient — an IEEE inf, never a trap.
void pftk_batch(Level level, std::size_t n, const double* rtt_ms,
                const double* loss, const double* residual_bps,
                const double* capacity_bps, const double* rwnd_bytes,
                const TcpModelParams& p, double* out_bps);

/// First-index min-plus argmin, one relaxation of a distance vector: the
/// lowest j in [0, n) minimizing a[j] + b[j] over the j with
/// next[j] != exclude, or -1 when every such term is +inf (or there is
/// none). Inputs must hold no NaN and no -inf, so no term is NaN.
///
/// Each term is one IEEE add, the same bits at every level; the minimum of
/// a set of non-NaN doubles is a selection, and the first index holding it
/// is unique. Hence the result is identical at every level. The AVX2 level
/// finds the minimum four lanes at a time, then scans for its first index.
int min_plus_argmin(Level level, std::size_t n, const double* a,
                    const double* b, const int* next, int exclude);

}  // namespace cronets::model::simd
