// Batched margin-loss evaluation over hypercube universes.
//
// The cold-plan cost of Prepare, and every oracle solve, is dominated by
// objective sweeps of the form sum_e mass_e * link(<theta, t(row_e)>, y_e)
// over ~|X| support entries, where t is an optional coordinate/label sign
// flip (losses/transforms.h). On the hypercube universes
// (data/binary_universe.h) every feature is +-scale with the SAME double
// `scale` for all rows, and index bit j selects the sign of coordinate j.
// The kernels here exploit that: instead of materializing rows, they
// evaluate
//
//   z_e = sum_j (bit_j(e) ? w_j : -w_j),   w_j = theta_j * c_j,
//   c_j = flips_j * scale,
//
// reading only index bits. Each sweep is one fused pass over quads of
// entries: z from a prefix table plus per-lane adds, the link
// (instantiated once per LinkKind, no per-entry dispatch), the mass
// product, then the entry-order sum or the gradient scatter.
//
// Bitwise identity with the generic path (load-bearing: serving
// transcripts must not depend on which path ran):
//   * IEEE multiplication is sign-symmetric: x * (-y) carries exactly the
//     sign-flipped bits of x * y. The generic path's theta_j * t_j with
//     t_j = +-c_j is therefore exactly +-w_j, and the +-1 int flips
//     convert to +-1.0 doubles whose products are exact sign arithmetic.
//   * Prefix table: table[p] holds the dot product's running sum after
//     its first k terms for sign pattern p, k = min(d, 10,
//     floor(log2 count)). It is built by doubling, table[p + 2^j] =
//     table[p] + w_j and table[p] = table[p] + -w_j, from table[0] = 0.0:
//     per pattern, the same adds in the same j order as the scalar loop.
//     Coordinates j >= k continue from the table entry in j order, one
//     entry per AVX2 lane. Vectorizing the doubling only runs
//     independent elementwise adds four at a time.
//   * Links: the scalar bodies are the static Eval/EvalDerivative that
//     the virtual Link methods call (margin_losses.h). Squared, hinge and
//     absolute also have AVX2 bodies whose operations match the scalar
//     ones lane by lane, including +-0 and NaN: hinge's
//     std::max(0.0, m) == maxpd(m, 0) (both pick 0 unless m > 0); its
//     derivative is and(m > 0 ordered, -y), so a cleared lane is +0.0;
//     absolute's |r| clears the sign bit and its derivative combines two
//     ordered compares, both false on NaN and on +0 vs -0. Logistic,
//     Huber and generic links run their scalar bodies per lane.
//   * Value: the four mass * link products are formed in lanes
//     (elementwise), then added to the running sum one at a time in entry
//     order — the exact sequence of convex::SupportObjective's row loop.
//   * Gradient: coeff_e * t_j is computed as +-(coeff_e * c_j), exact by
//     sign symmetry (AVX2 XORs a sign mask picked by the index bits onto
//     coeff_e * -c_j).
//     Coordinates fan across lanes and each grad slot receives its adds
//     in entry order, so every slot matches the scalar scatter.
//   * FMA is never used: the kernels compile with target("avx2") only
//     (common/simd.h), so no multiply-add is fused.
// tests/simd_kernels_test.cc checks batch-vs-generic equality bit for bit
// with SIMD on and off; the transcript property test does the same end
// to end.

#ifndef PMWCM_LOSSES_MARGIN_KERNELS_H_
#define PMWCM_LOSSES_MARGIN_KERNELS_H_

#include <cstddef>
#include <utility>

#include "convex/vector_ops.h"
#include "data/universe.h"

namespace pmw {
namespace losses {

class MarginLoss;

namespace kernels {

/// Accumulates sum_e mass_e * link(<theta, t(row_e)>, label_flip * y_e)
/// into *acc. `flips` is a per-coordinate +-1 array of length theta.size()
/// (nullptr means no coordinate flips; pass label_flip = 1 for the
/// untransformed loss). Returns false — leaving *acc untouched — when
/// `universe` is not a (Labeled)HypercubeUniverse of matching dimension,
/// in which case the caller must run the generic per-row loop.
bool HypercubeMarginValue(const MarginLoss& link, const convex::Vec& theta,
                          const data::Universe& universe, const int* flips,
                          int label_flip,
                          const std::pair<int, double>* entries, size_t count,
                          double* acc);

/// Gradient counterpart: accumulates per-entry mass_e-weighted margin
/// gradients into *grad with the generic path's exact operation order.
/// Same false-means-fallback contract as HypercubeMarginValue.
bool HypercubeMarginAddGradient(const MarginLoss& link,
                                const convex::Vec& theta,
                                const data::Universe& universe,
                                const int* flips, int label_flip,
                                const std::pair<int, double>* entries,
                                size_t count, convex::Vec* grad);

}  // namespace kernels
}  // namespace losses
}  // namespace pmw

#endif  // PMWCM_LOSSES_MARGIN_KERNELS_H_
