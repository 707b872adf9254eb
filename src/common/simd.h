// Runtime-dispatched AVX2 kernels for the MW-update hot loops.
//
// Every kernel here is BIT-IDENTICAL to the scalar loop it replaces, by
// construction, not by tolerance:
//
//   * Elementwise add / sub / mul / div are IEEE-754 operations; doing
//     four lanes at once performs the same rounding per element as the
//     scalar loop, so vectorizing a pure elementwise pass cannot change
//     any bit.
//   * Sums are vectorized only WITHIN fixed PairwiseSum tree leaves
//     (PairwiseLeaf4/8 reproduce the tree's exact association:
//     ((v0+v1)+(v2+v3)) + ((v4+v5)+(v6+v7)) via HADDPD + 128-bit fold),
//     so the reduction tree — and hence every transcript bit — is
//     unchanged.
//   * Max folds may be lane-reordered: for finite doubles, reordering a
//     max fold can only change result BITS when distinct-bit ties occur,
//     i.e. +0.0 vs -0.0 (equal non-zero doubles are bit-equal). The only
//     consumer is exp(x - max), and exp(x - +0.0) == exp(x - -0.0) for
//     every x (the ±0 difference survives only at x == ±0, where
//     exp(±0) == 1.0 exactly), so the downstream bits cannot differ.
//   * The MW update's std::log / std::exp stay scalar per element —
//     libm makes no cross-call guarantees a vector approximation could
//     honor. The logistic link is not libm: Log1PExp and Sigmoid are one
//     fixed polynomial (common/logistic_poly.h) whose AVX2 twin in
//     losses/margin_kernels.cc runs the same IEEE operations in lanes.
//   * FMA is NEVER used: the baseline scalar build targets plain x86-64
//     (no FMA ISA), so a fused multiply-add would round differently.
//     Kernels compile with target("avx2") only, and use explicit
//     mul-then-add intrinsics.
//
// Dispatch: kernels check Enabled() and fall back to the scalar loop, so
// callers never branch. Enabled() requires (a) compiled-in support
// (PMW_ENABLE_AVX2, on x86-64), (b) AVX2 at runtime (cpuid), (c) the
// process-wide switch: SetEnabled(false), or PMW_SIMD=off|0 in the
// environment at startup, forces the scalar path — that is what
// `bench_serve_parallel --simd=off` and the equivalence property tests
// drive.

#ifndef PMWCM_COMMON_SIMD_H_
#define PMWCM_COMMON_SIMD_H_

#include <cstddef>

namespace pmw {
namespace simd {

/// True when AVX2 kernels are compiled in AND the CPU reports AVX2.
bool Available();

/// Available() and not switched off (SetEnabled / PMW_SIMD env).
bool Enabled();

/// Process-wide runtime switch. Thread-safe; takes effect on the next
/// kernel call. No-op (stays false) when !Available().
void SetEnabled(bool on);

/// ((v[0]+v[1]) + (v[2]+v[3])) + ((v[4]+v[5]) + (v[6]+v[7])) — the exact
/// n == 8 node of the fixed PairwiseSum reduction tree.
double PairwiseLeaf8(const double* v);

/// (v[0]+v[1]) + (v[2]+v[3]) — the exact n == 4 tree node.
double PairwiseLeaf4(const double* v);

/// dst[i] = dst[i] + scale * src[i] for i in [0, n), and folds
/// max(*max_io, dst[i]) into *max_io (see the ±0 argument above).
/// The MW phase-1 reweigh pass (dst already holds SafeLog(p)).
void AxpyMax(double* dst, const double* src, double scale, size_t n,
             double* max_io);

/// v[i] = v[i] - c. The MW phase-2 stabilization shift (exp stays scalar
/// per element in the caller).
void SubScalar(double* v, double c, size_t n);

/// dst[i] = src[i] / c. The MW phase-3 normalize pass.
void DivScalarTo(double* dst, const double* src, double c, size_t n);

}  // namespace simd
}  // namespace pmw

#endif  // PMWCM_COMMON_SIMD_H_
