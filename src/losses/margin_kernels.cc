#include "losses/margin_kernels.h"

#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/simd.h"
#include "data/binary_universe.h"
#include "losses/margin_losses.h"

#if defined(PMW_ENABLE_AVX2) && defined(__x86_64__)
#define PMW_MARGIN_SIMD 1
#include <immintrin.h>
#else
#define PMW_MARGIN_SIMD 0
#endif

namespace pmw {
namespace losses {
namespace kernels {
namespace {

// Widest hypercube the universes can construct is dim 20 (binary_universe.h),
// so fixed stack arrays suffice.
constexpr int kMaxDim = 64;

struct Layout {
  int dim = 0;        // feature dimension d
  int shift = 0;      // index bit holding the sign of coordinate 0
  bool labeled = false;  // label in index bit 0 (set => +1.0)
  double scale = 0.0;    // the exact stored |feature| double
};

bool Detect(const data::Universe& universe, size_t theta_dim, Layout* out) {
  if (const auto* cube =
          dynamic_cast<const data::HypercubeUniverse*>(&universe)) {
    out->dim = cube->dim();
    out->shift = 0;
    out->labeled = false;
  } else if (const auto* labeled =
                 dynamic_cast<const data::LabeledHypercubeUniverse*>(
                     &universe)) {
    out->dim = labeled->dim();
    out->shift = 1;
    out->labeled = true;
  } else {
    return false;
  }
  if (static_cast<size_t>(out->dim) != theta_dim) return false;
  if (out->dim > kMaxDim || universe.size() == 0) return false;
  // All rows store the same +-scale double (computed once when the universe
  // was built), so row 0's first feature carries the exact bits.
  out->scale = std::abs(universe.row(0).features[0]);
  return true;
}

// w[j] = theta_j * c_j and c[j] = flips_j * scale; the generic path's
// theta_j * t_j with t_j = +-c_j is exactly +-w[j] (header). The negated
// copies feed the AVX2 kernels (sign-bit XOR flips them back exactly) and
// are zero-padded so padding lanes contribute only discarded +-0 terms.
struct Weights {
  double c[kMaxDim];
  double w[kMaxDim];
  alignas(32) double neg_c[kMaxDim + 4] = {0.0};
  alignas(32) double neg_w[kMaxDim + 4] = {0.0};
};

void ComputeWeights(const convex::Vec& theta, const int* flips, double scale,
                    int dim, Weights* out) {
  for (int j = 0; j < dim; ++j) {
    out->c[j] = flips != nullptr ? static_cast<double>(flips[j]) * scale
                                 : scale;
    out->w[j] = theta[j] * out->c[j];
    out->neg_c[j] = -out->c[j];
    out->neg_w[j] = -out->w[j];
  }
}

inline double ScalarZ(std::uint64_t index, const Layout& layout,
                      const double* w) {
  const std::uint64_t feature_bits = index >> layout.shift;
  double z = 0.0;
  for (int j = 0; j < layout.dim; ++j) {
    z += ((feature_bits >> j) & 1u) != 0 ? w[j] : -w[j];
  }
  return z;
}

inline double LabelOf(std::uint64_t index, const Layout& layout,
                      double y_clear, double y_set) {
  if (!layout.labeled) return y_clear;
  return (index & 1u) != 0 ? y_set : y_clear;
}

// Inline dispatch to the static Eval bodies that the virtual Link methods
// also call (margin_losses.h) — same code either way, this just skips the
// per-entry virtual call. kGeneric falls back to the virtual.
inline double EvalLink(const MarginLoss& link, LinkKind kind, double param,
                       double z, double y) {
  switch (kind) {
    case LinkKind::kSquared:
      return SquaredLoss::Eval(z, y);
    case LinkKind::kLogistic:
      return LogisticLoss::Eval(z, y);
    case LinkKind::kHinge:
      return HingeLoss::Eval(z, y);
    case LinkKind::kAbsolute:
      return AbsoluteLoss::Eval(z, y);
    case LinkKind::kHuber:
      return HuberLoss::Eval(z, y, param);
    case LinkKind::kGeneric:
      break;
  }
  return link.Link(z, y);
}

inline double EvalLinkDerivative(const MarginLoss& link, LinkKind kind,
                                 double param, double z, double y) {
  switch (kind) {
    case LinkKind::kSquared:
      return SquaredLoss::EvalDerivative(z, y);
    case LinkKind::kLogistic:
      return LogisticLoss::EvalDerivative(z, y);
    case LinkKind::kHinge:
      return HingeLoss::EvalDerivative(z, y);
    case LinkKind::kAbsolute:
      return AbsoluteLoss::EvalDerivative(z, y);
    case LinkKind::kHuber:
      return HuberLoss::EvalDerivative(z, y, param);
    case LinkKind::kGeneric:
      break;
  }
  return link.LinkDerivative(z, y);
}

#if PMW_MARGIN_SIMD

// Four entries per iteration, one per AVX2 lane; each lane replays the
// scalar z accumulation (same 0.0 start, same j order). Index bit j is
// shifted into the IEEE sign position and XORed onto -w[j]: bit set flips
// -w[j] to +w[j], bit clear leaves -w[j] — exact negation either way.
// target("avx2") only, never "fma" (common/simd.h).
__attribute__((target("avx2"))) void BatchZAvx2(
    const std::pair<int, double>* entries, size_t quads, const Layout& layout,
    const double* neg_w, double* z_out) {
  const __m128i shift_count = _mm_cvtsi32_si128(layout.shift);
  for (size_t q = 0; q < quads; ++q) {
    const std::pair<int, double>* p = entries + 4 * q;
    const __m256i index = _mm256_set_epi64x(p[3].first, p[2].first,
                                            p[1].first, p[0].first);
    __m256i bits = _mm256_srl_epi64(index, shift_count);
    __m256d z = _mm256_setzero_pd();
    for (int j = 0; j < layout.dim; ++j) {
      // Bit 0 of `bits` lands alone in the sign position; the shift fills
      // everything else with zeros, so no masking is needed.
      const __m256i sign = _mm256_slli_epi64(bits, 63);
      const __m256d term =
          _mm256_xor_pd(_mm256_set1_pd(neg_w[j]), _mm256_castsi256_pd(sign));
      z = _mm256_add_pd(z, term);
      bits = _mm256_srli_epi64(bits, 1);
    }
    _mm256_storeu_pd(z_out + 4 * q, z);
  }
}

// Gradient scatter for one block of entries: grad[j] += +-(coeff_e * c[j])
// for every entry in order. Coordinates fan across lanes four at a time
// (grad slots are independent, so vectorizing across j keeps each slot's
// per-entry add sequence identical to the scalar scatter); accumulators
// stay in registers across the block via a 32-slot padded copy of grad.
// Signs come from srlv-ing each entry's bits by {j..j+3} and shifting into
// the sign position, XORed onto coeff * (-c[j]) — exact negation.
__attribute__((target("avx2"))) void GradScatterAvx2(
    const std::pair<int, double>* entries, size_t n, const Layout& layout,
    const double* neg_c, const double* coeff, double* grad_padded) {
  const int blocks = (layout.dim + 3) / 4;
  __m256d acc[(kMaxDim + 3) / 4];
  __m256d negc_v[(kMaxDim + 3) / 4];
  __m256i shifts[(kMaxDim + 3) / 4];
  for (int b = 0; b < blocks; ++b) {
    acc[b] = _mm256_loadu_pd(grad_padded + 4 * b);
    negc_v[b] = _mm256_loadu_pd(neg_c + 4 * b);
    shifts[b] = _mm256_set_epi64x(4 * b + 3, 4 * b + 2, 4 * b + 1, 4 * b);
  }
  for (size_t e = 0; e < n; ++e) {
    const __m256i bits = _mm256_set1_epi64x(
        static_cast<long long>(static_cast<std::uint64_t>(entries[e].first) >>
                               layout.shift));
    const __m256d coeff_v = _mm256_set1_pd(coeff[e]);
    for (int b = 0; b < blocks; ++b) {
      const __m256i sign =
          _mm256_slli_epi64(_mm256_srlv_epi64(bits, shifts[b]), 63);
      const __m256d term = _mm256_xor_pd(_mm256_mul_pd(coeff_v, negc_v[b]),
                                         _mm256_castsi256_pd(sign));
      acc[b] = _mm256_add_pd(acc[b], term);
    }
  }
  for (int b = 0; b < blocks; ++b) {
    _mm256_storeu_pd(grad_padded + 4 * b, acc[b]);
  }
}

#endif  // PMW_MARGIN_SIMD

// Computes z for entries [i, i+n) into z_buf, SIMD when enabled.
void ZBlock(const std::pair<int, double>* entries, size_t n,
            const Layout& layout, const Weights& weights, double* z_buf) {
  size_t i = 0;
#if PMW_MARGIN_SIMD
  if (simd::Enabled()) {
    const size_t quads = n / 4;
    BatchZAvx2(entries, quads, layout, weights.neg_w, z_buf);
    i = 4 * quads;
  }
#endif
  for (; i < n; ++i) {
    z_buf[i] =
        ScalarZ(static_cast<std::uint64_t>(entries[i].first), layout,
                weights.w);
  }
}

constexpr size_t kBlock = 256;

}  // namespace

bool HypercubeMarginValue(const MarginLoss& link, const convex::Vec& theta,
                          const data::Universe& universe, const int* flips,
                          int label_flip,
                          const std::pair<int, double>* entries, size_t count,
                          double* acc) {
  Layout layout;
  if (!Detect(universe, theta.size(), &layout)) return false;
  Weights weights;
  ComputeWeights(theta, flips, layout.scale, layout.dim, &weights);
  // Same label multiply as the generic transform (label_flip * stored
  // label); exact for the stored labels {-1.0, 0.0, +1.0}.
  const double lf = static_cast<double>(label_flip);
  const double y_set = lf * 1.0;
  const double y_clear = lf * (layout.labeled ? -1.0 : 0.0);
  const LinkKind kind = link.link_kind();
  const double param = link.link_param();
  double z_buf[kBlock];
  double local = *acc;
  for (size_t i = 0; i < count; i += kBlock) {
    const size_t n = count - i < kBlock ? count - i : kBlock;
    ZBlock(entries + i, n, layout, weights, z_buf);
    for (size_t k = 0; k < n; ++k) {
      const auto& [index, mass] = entries[i + k];
      const double y = LabelOf(static_cast<std::uint64_t>(index), layout,
                               y_clear, y_set);
      local += mass * EvalLink(link, kind, param, z_buf[k], y);
    }
  }
  *acc = local;
  return true;
}

bool HypercubeMarginAddGradient(const MarginLoss& link,
                                const convex::Vec& theta,
                                const data::Universe& universe,
                                const int* flips, int label_flip,
                                const std::pair<int, double>* entries,
                                size_t count, convex::Vec* grad) {
  Layout layout;
  if (!Detect(universe, theta.size(), &layout)) return false;
  PMW_CHECK(grad != nullptr);
  PMW_CHECK_EQ(grad->size(), theta.size());
  Weights weights;
  ComputeWeights(theta, flips, layout.scale, layout.dim, &weights);
  const double lf = static_cast<double>(label_flip);
  const double y_set = lf * 1.0;
  const double y_clear = lf * (layout.labeled ? -1.0 : 0.0);
  const LinkKind kind = link.link_kind();
  const double param = link.link_param();
  double z_buf[kBlock];
  double* g = grad->data();
#if PMW_MARGIN_SIMD
  if (simd::Enabled()) {
    double coeff_buf[kBlock];
    // Register-resident accumulation over a zero-padded copy of grad;
    // the copies are exact and padding slots are discarded.
    alignas(32) double grad_padded[kMaxDim + 4] = {0.0};
    for (size_t j = 0; j < theta.size(); ++j) grad_padded[j] = g[j];
    for (size_t i = 0; i < count; i += kBlock) {
      const size_t n = count - i < kBlock ? count - i : kBlock;
      ZBlock(entries + i, n, layout, weights, z_buf);
      for (size_t k = 0; k < n; ++k) {
        const auto& [index, mass] = entries[i + k];
        const double y = LabelOf(static_cast<std::uint64_t>(index), layout,
                                 y_clear, y_set);
        coeff_buf[k] =
            mass * EvalLinkDerivative(link, kind, param, z_buf[k], y);
      }
      GradScatterAvx2(entries + i, n, layout, weights.neg_c, coeff_buf,
                      grad_padded);
    }
    for (size_t j = 0; j < theta.size(); ++j) g[j] = grad_padded[j];
    return true;
  }
#endif
  for (size_t i = 0; i < count; i += kBlock) {
    const size_t n = count - i < kBlock ? count - i : kBlock;
    ZBlock(entries + i, n, layout, weights, z_buf);
    for (size_t k = 0; k < n; ++k) {
      const auto& [index, mass] = entries[i + k];
      const std::uint64_t idx = static_cast<std::uint64_t>(index);
      const double y = LabelOf(idx, layout, y_clear, y_set);
      const double coeff =
          mass * EvalLinkDerivative(link, kind, param, z_buf[k], y);
      const std::uint64_t feature_bits = idx >> layout.shift;
      // coeff * t_j as +-(coeff * c_j): exact by sign symmetry, (entry, j)
      // order matches the generic scatter.
      for (int j = 0; j < layout.dim; ++j) {
        const double gj = coeff * weights.c[j];
        g[j] += ((feature_bits >> j) & 1u) != 0 ? gj : -gj;
      }
    }
  }
  return true;
}

}  // namespace kernels
}  // namespace losses
}  // namespace pmw
