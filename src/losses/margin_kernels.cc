#include "losses/margin_kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/logistic_poly.h"
#include "common/simd.h"
#include "data/binary_universe.h"
#include "losses/margin_losses.h"

#if defined(PMW_ENABLE_AVX2) && defined(__x86_64__)
#define PMW_MARGIN_SIMD 1
#include <immintrin.h>
// target("avx2") only, never "fma" (common/simd.h).
#define PMW_AVX2 __attribute__((target("avx2")))
#else
#define PMW_MARGIN_SIMD 0
#endif

namespace pmw {
namespace losses {
namespace kernels {
namespace {

using Entry = std::pair<int, double>;

// The widest hypercube the universes construct is d = 20
// (binary_universe.h), so per-coordinate arrays are fixed-size and a
// gradient fits in at most five 4-wide accumulators.
constexpr int kMaxDim = 20;
constexpr int kMaxBlocks = (kMaxDim + 3) / 4;
// Prefix-table width cap: 2^10 doubles, 8 KiB, stays L1-resident.
constexpr int kMaxTableBits = 10;

// Everything a sweep reads, computed once per call.
struct Sweep {
  int dim = 0;
  // The index bit holding the sign of coordinate 0.
  int shift = 0;
  // The (flipped) label for index bit 0 clear / set.
  double ys[2];
  // c_j = flips_j * scale and w_j = theta_j * c_j, with negated copies;
  // neg_c is zero-padded to whole 4-lane blocks.
  double c[kMaxDim];
  double w[kMaxDim];
  double neg_w[kMaxDim];
  alignas(32) double neg_c[4 * kMaxBlocks];
  // table[p] = the running z after coordinates [0, table_bits) for sign
  // pattern p; coordinates [table_bits, dim) accumulate per entry.
  int table_bits = 0;
  std::uint64_t table_mask = 0;
  alignas(32) double table[1 << kMaxTableBits];
};

inline std::uint64_t FeatureBits(const Sweep& s, int index) {
  return static_cast<std::uint64_t>(index) >> s.shift;
}

inline double Label(const Sweep& s, int index) {
  return s.ys[static_cast<std::uint64_t>(index) & 1u];
}

// The scalar z: the table's prefix, then the remaining coordinates in j
// order — the same adds the per-row dot product runs.
inline double EntryZ(const Sweep& s, std::uint64_t bits) {
  double z = s.table[bits & s.table_mask];
  for (int j = s.table_bits; j < s.dim; ++j) {
    z += ((bits >> j) & 1u) != 0 ? s.w[j] : s.neg_w[j];
  }
  return z;
}

// Table doubling over coordinates [from, to): after step j, table[p] for
// p < 2^(j+1) holds ((0.0 + s_0) + s_1) + ... + s_j with
// s_i = bit_i(p) ? w_i : -w_i.
void Double(Sweep* s, int from, int to) {
  double* t = s->table;
  for (int j = from; j < to; ++j) {
    const size_t half = size_t{1} << j;
    for (size_t p = 0; p < half; ++p) {
      t[p + half] = t[p] + s->w[j];
      t[p] = t[p] + s->neg_w[j];
    }
  }
}

#if PMW_MARGIN_SIMD
// Double four patterns per instruction; needs from >= 2 (half >= 4).
PMW_AVX2 void DoubleAvx2(Sweep* s, int from, int to) {
  double* t = s->table;
  for (int j = from; j < to; ++j) {
    const size_t half = size_t{1} << j;
    const __m256d pos = _mm256_set1_pd(s->w[j]);
    const __m256d neg = _mm256_set1_pd(s->neg_w[j]);
    for (size_t p = 0; p < half; p += 4) {
      const __m256d v = _mm256_load_pd(t + p);
      _mm256_store_pd(t + p + half, _mm256_add_pd(v, pos));
      _mm256_store_pd(t + p, _mm256_add_pd(v, neg));
    }
  }
}
#endif  // PMW_MARGIN_SIMD

// w_j = theta_j * c_j and c_j = flips_j * scale: the generic path's
// theta_j * t_j with t_j = +-c_j is exactly +-w_j (header).
bool Prepare(const convex::Vec& theta, const data::Universe& universe,
             const int* flips, int label_flip, size_t count, Sweep* s) {
  bool labeled = false;
  if (const auto* cube =
          dynamic_cast<const data::HypercubeUniverse*>(&universe)) {
    s->dim = cube->dim();
  } else if (const auto* labeled_cube =
                 dynamic_cast<const data::LabeledHypercubeUniverse*>(
                     &universe)) {
    s->dim = labeled_cube->dim();
    labeled = true;
  } else {
    return false;
  }
  if (static_cast<size_t>(s->dim) != theta.size()) return false;
  if (s->dim > kMaxDim) return false;
  s->shift = labeled ? 1 : 0;
  // Same label multiply as the generic transform (label_flip * stored
  // label); exact for the stored labels {-1.0, 0.0, +1.0}. Unlabeled rows
  // all store 0.0, whatever index bit 0 holds.
  const double lf = static_cast<double>(label_flip);
  s->ys[0] = lf * (labeled ? -1.0 : 0.0);
  s->ys[1] = labeled ? lf * 1.0 : s->ys[0];
  // All rows store the same +-scale double (computed once when the
  // universe was built), so row 0's first feature carries the exact bits.
  const double scale = std::abs(universe.row(0).features[0]);
  std::fill(std::begin(s->neg_c), std::end(s->neg_c), 0.0);
  for (int j = 0; j < s->dim; ++j) {
    s->c[j] = flips != nullptr ? static_cast<double>(flips[j]) * scale : scale;
    s->w[j] = theta[j] * s->c[j];
    s->neg_w[j] = -s->w[j];
    s->neg_c[j] = -s->c[j];
  }
  // A table wider than the support would cost more adds than it saves.
  const int count_bits =
      count > 1 ? static_cast<int>(std::bit_width(count)) - 1 : 0;
  s->table_bits = std::min({s->dim, kMaxTableBits, count_bits});
  s->table_mask = (std::uint64_t{1} << s->table_bits) - 1;
  s->table[0] = 0.0;
#if PMW_MARGIN_SIMD
  if (simd::Enabled() && s->table_bits > 2) {
    Double(s, 0, 2);
    DoubleAvx2(s, 2, s->table_bits);
    return true;
  }
#endif
  Double(s, 0, s->table_bits);
  return true;
}

// Link functors, one per LinkKind, so each sweep is instantiated with its
// link inlined. The scalar bodies are the static Eval/EvalDerivative the
// virtual Link methods call (margin_losses.h). kLanes links also carry
// AVX2 bodies that reproduce the scalar ones lane by lane.
struct SquaredLink {
  static constexpr bool kLanes = true;
  double Value(double z, double y) const { return SquaredLoss::Eval(z, y); }
  double Derivative(double z, double y) const {
    return SquaredLoss::EvalDerivative(z, y);
  }
#if PMW_MARGIN_SIMD
  // 0.25 * ((z - y) * (z - y)) and 0.5 * (z - y).
  PMW_AVX2 __m256d Value4(__m256d z, __m256d y) const {
    const __m256d r = _mm256_sub_pd(z, y);
    return _mm256_mul_pd(_mm256_set1_pd(0.25), _mm256_mul_pd(r, r));
  }
  PMW_AVX2 __m256d Derivative4(__m256d z, __m256d y) const {
    return _mm256_mul_pd(_mm256_set1_pd(0.5), _mm256_sub_pd(z, y));
  }
#endif
};

struct HingeLink {
  static constexpr bool kLanes = true;
  double Value(double z, double y) const { return HingeLoss::Eval(z, y); }
  double Derivative(double z, double y) const {
    return HingeLoss::EvalDerivative(z, y);
  }
#if PMW_MARGIN_SIMD
  // std::max(0.0, m) is (0.0 < m) ? m : 0.0; maxpd(m, 0) is
  // (m > 0) ? m : 0 — the same pick for NaN and for either zero.
  PMW_AVX2 __m256d Value4(__m256d z, __m256d y) const {
    const __m256d m = _mm256_sub_pd(_mm256_set1_pd(1.0), _mm256_mul_pd(y, z));
    return _mm256_max_pd(m, _mm256_setzero_pd());
  }
  // (m > 0.0) ? -y : 0.0 — an ordered compare is false on NaN, and the
  // cleared lane is +0.0.
  PMW_AVX2 __m256d Derivative4(__m256d z, __m256d y) const {
    const __m256d m = _mm256_sub_pd(_mm256_set1_pd(1.0), _mm256_mul_pd(y, z));
    const __m256d pos = _mm256_cmp_pd(m, _mm256_setzero_pd(), _CMP_GT_OQ);
    return _mm256_and_pd(pos, _mm256_xor_pd(y, _mm256_set1_pd(-0.0)));
  }
#endif
};

struct AbsoluteLink {
  static constexpr bool kLanes = true;
  double Value(double z, double y) const { return AbsoluteLoss::Eval(z, y); }
  double Derivative(double z, double y) const {
    return AbsoluteLoss::EvalDerivative(z, y);
  }
#if PMW_MARGIN_SIMD
  // std::abs clears the sign bit.
  PMW_AVX2 __m256d Value4(__m256d z, __m256d y) const {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), _mm256_sub_pd(z, y));
  }
  // z > y ? 1.0 : z < y ? -1.0 : 0.0 — both compares are false on NaN
  // and on +0.0 vs -0.0.
  PMW_AVX2 __m256d Derivative4(__m256d z, __m256d y) const {
    const __m256d gt = _mm256_cmp_pd(z, y, _CMP_GT_OQ);
    const __m256d lt = _mm256_cmp_pd(z, y, _CMP_LT_OQ);
    return _mm256_or_pd(_mm256_and_pd(gt, _mm256_set1_pd(1.0)),
                        _mm256_and_pd(lt, _mm256_set1_pd(-1.0)));
  }
#endif
};

#if PMW_MARGIN_SIMD
using logistic_poly::kAtanhP;
using logistic_poly::kExpQ;
using logistic_poly::kInvLn2;
using logistic_poly::kLn2Hi;
using logistic_poly::kLn2Lo;
using logistic_poly::kMaxArg;
using logistic_poly::kRound;
using logistic_poly::kScaleBits;
using logistic_poly::kUnscale;

// Shorthands, so the logistic twin below reads line by line like its
// scalar body.
PMW_AVX2 inline __m256d Add(__m256d a, __m256d b) {
  return _mm256_add_pd(a, b);
}
PMW_AVX2 inline __m256d Mul(__m256d a, __m256d b) {
  return _mm256_mul_pd(a, b);
}
PMW_AVX2 inline __m256d Set(double c) { return _mm256_set1_pd(c); }

// c[i] + c[i + 1] * x: one Estrin pair.
PMW_AVX2 inline __m256d Pair(const double* c, __m256d x) {
  return Add(Set(c[0]), Mul(Set(c[1]), x));
}

// The scalar Estrin10, ExpNegAbs and Log1PSmall of common/math_util.cc in
// lanes, operation for operation (common/logistic_poly.h).
PMW_AVX2 inline __m256d Estrin10(const double* c, __m256d x) {
  const __m256d x2 = Mul(x, x);
  const __m256d x4 = Mul(x2, x2);
  const __m256d x8 = Mul(x4, x4);
  const __m256d c03 = Add(Pair(c, x), Mul(Pair(c + 2, x), x2));
  const __m256d c47 = Add(Pair(c + 4, x), Mul(Pair(c + 6, x), x2));
  return Add(Add(c03, Mul(c47, x4)), Mul(Pair(c + 8, x), x8));
}

PMW_AVX2 inline __m256d ExpNegAbs4(__m256d m) {
  const __m256d sign = Set(-0.0);
  // kMaxArg < |m| ? kMaxArg : |m|.
  const __m256d a = _mm256_min_pd(Set(kMaxArg), _mm256_andnot_pd(sign, m));
  const __m256d x = _mm256_xor_pd(a, sign);
  const __m256d kd = Add(Mul(x, Set(kInvLn2)), Set(kRound));
  const __m256d n = _mm256_sub_pd(kd, Set(kRound));
  const __m256d r = _mm256_sub_pd(_mm256_sub_pd(x, Mul(n, Set(kLn2Hi))),
                                  Mul(n, Set(kLn2Lo)));
  const __m256d er =
      Add(Set(1.0), Add(r, Mul(Mul(r, r), Estrin10(kExpQ, r))));
  const __m256d scale = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(_mm256_castpd_si256(kd),
                       _mm256_set1_epi64x(static_cast<long long>(kScaleBits))),
      52));
  return Mul(Mul(er, scale), Set(kUnscale));
}

PMW_AVX2 inline __m256d Log1PSmall4(__m256d t) {
  const __m256d u = _mm256_div_pd(t, Add(Set(2.0), t));
  const __m256d w = Mul(u, u);
  const __m256d half_sq = Mul(Set(0.5), Mul(t, t));
  return _mm256_sub_pd(
      t, _mm256_sub_pd(half_sq,
                       Mul(u, Add(half_sq, Mul(w, Estrin10(kAtanhP, w))))));
}
#endif  // PMW_MARGIN_SIMD

struct LogisticLink {
  static constexpr bool kLanes = true;
  double Value(double z, double y) const { return LogisticLoss::Eval(z, y); }
  double Derivative(double z, double y) const {
    return LogisticLoss::EvalDerivative(z, y);
  }
#if PMW_MARGIN_SIMD
  // Log1PExp(m), m = -y * z: maxpd(m, 0) is std::max(0.0, m).
  PMW_AVX2 __m256d Value4(__m256d z, __m256d y) const {
    const __m256d m = Mul(_mm256_xor_pd(y, Set(-0.0)), z);
    return Add(_mm256_max_pd(m, _mm256_setzero_pd()),
               Log1PSmall4(ExpNegAbs4(m)));
  }
  // -y * Sigmoid(m): (m >= 0 ? 1 : t) / (1 + t), an ordered compare that
  // is false on NaN.
  PMW_AVX2 __m256d Derivative4(__m256d z, __m256d y) const {
    const __m256d neg_y = _mm256_xor_pd(y, Set(-0.0));
    const __m256d m = Mul(neg_y, z);
    const __m256d t = ExpNegAbs4(m);
    const __m256d num = _mm256_blendv_pd(
        t, Set(1.0), _mm256_cmp_pd(m, _mm256_setzero_pd(), _CMP_GE_OQ));
    return Mul(neg_y, _mm256_div_pd(num, Add(Set(1.0), t)));
  }
#endif
};

// Links whose bodies stay scalar per lane: Huber's Clamp, and the
// virtual Link of a MarginLoss subclass with no kind.
struct HuberLink {
  static constexpr bool kLanes = false;
  double delta;
  double Value(double z, double y) const {
    return HuberLoss::Eval(z, y, delta);
  }
  double Derivative(double z, double y) const {
    return HuberLoss::EvalDerivative(z, y, delta);
  }
};

struct GenericLink {
  static constexpr bool kLanes = false;
  const MarginLoss* link;
  double Value(double z, double y) const { return link->Link(z, y); }
  double Derivative(double z, double y) const {
    return link->LinkDerivative(z, y);
  }
};

// The sweep's one dispatch on the kind: fn is instantiated per functor,
// so no entry loop switches on it.
template <class Fn>
void WithLink(const MarginLoss& link, Fn&& fn) {
  switch (link.link_kind()) {
    case LinkKind::kSquared:
      return fn(SquaredLink{});
    case LinkKind::kLogistic:
      return fn(LogisticLink{});
    case LinkKind::kHinge:
      return fn(HingeLink{});
    case LinkKind::kAbsolute:
      return fn(AbsoluteLink{});
    case LinkKind::kHuber:
      return fn(HuberLink{link.link_param()});
    case LinkKind::kGeneric:
      break;
  }
  fn(GenericLink{&link});
}

// The per-entry scalar sweeps: the SIMD-off path, and the < 4 entry tail
// after the AVX2 quads.
template <class L>
double ValueScalar(const L& link, const Sweep& s, const Entry* entries,
                   size_t count, double local) {
  for (size_t i = 0; i < count; ++i) {
    const auto& [index, mass] = entries[i];
    local +=
        mass * link.Value(EntryZ(s, FeatureBits(s, index)), Label(s, index));
  }
  return local;
}

template <class L>
void AddGradientScalar(const L& link, const Sweep& s, const Entry* entries,
                       size_t count, double* g) {
  for (size_t i = 0; i < count; ++i) {
    const auto& [index, mass] = entries[i];
    const std::uint64_t bits = FeatureBits(s, index);
    const double coeff =
        mass * link.Derivative(EntryZ(s, bits), Label(s, index));
    // coeff * t_j as +-(coeff * c_j): exact by sign symmetry, (entry, j)
    // order matches the generic scatter. A clear bit j XORs the IEEE sign
    // bit onto coeff * c_j, the exact negation (NaN included) the AVX2
    // scatter applies, without a branch per coordinate.
    for (int j = 0; j < s.dim; ++j) {
      const std::uint64_t flip = (~bits >> j & 1u) << 63;
      g[j] += std::bit_cast<double>(
          std::bit_cast<std::uint64_t>(coeff * s.c[j]) ^ flip);
    }
  }
}

#if PMW_MARGIN_SIMD

// Four consecutive entries, one per lane.
struct Quad {
  std::uint64_t bits[4];  // feature bits (index >> shift)
  __m256d z, y, mass;
};

// z starts from each entry's table prefix; coordinates past the table
// replay the scalar adds per lane in j order. Index bit j is shifted into
// the IEEE sign position and XORed onto -w_j: bit set flips it to +w_j,
// bit clear leaves -w_j — exact negation either way.
PMW_AVX2 inline Quad LoadQuad(const Sweep& s, const Entry* q) {
  Quad out;
#pragma GCC unroll 4
  for (int k = 0; k < 4; ++k) out.bits[k] = FeatureBits(s, q[k].first);
  const std::uint64_t* b = out.bits;
  const std::uint64_t m = s.table_mask;
  out.z = _mm256_set_pd(s.table[b[3] & m], s.table[b[2] & m],
                        s.table[b[1] & m], s.table[b[0] & m]);
  // Two loads bring in four {int, double} entries; the unpacks leave the
  // lanes in order 0, 2, 1, 3, which the permutes restore. Each index
  // lane carries the pair's padding in its upper half, and no shift
  // below moves those bits into the sign position.
  const __m256d lo = _mm256_loadu_pd(reinterpret_cast<const double*>(q));
  const __m256d hi = _mm256_loadu_pd(reinterpret_cast<const double*>(q + 2));
  const __m256i index = _mm256_castpd_si256(
      _mm256_permute4x64_pd(_mm256_unpacklo_pd(lo, hi), 0xD8));
  out.mass = _mm256_permute4x64_pd(_mm256_unpackhi_pd(lo, hi), 0xD8);
  // ys[index & 1], picked on the sign of index bit 0.
  out.y = _mm256_blendv_pd(
      _mm256_set1_pd(s.ys[0]), _mm256_set1_pd(s.ys[1]),
      _mm256_castsi256_pd(_mm256_slli_epi64(index, 63)));
  if (s.table_bits < s.dim) {
    __m256i v =
        _mm256_srl_epi64(index, _mm_cvtsi32_si128(s.shift + s.table_bits));
    for (int j = s.table_bits; j < s.dim; ++j) {
      const __m256i sign = _mm256_slli_epi64(v, 63);
      out.z = _mm256_add_pd(out.z, _mm256_xor_pd(_mm256_set1_pd(s.neg_w[j]),
                                                 _mm256_castsi256_pd(sign)));
      v = _mm256_srli_epi64(v, 1);
    }
  }
  return out;
}

// f on each lane in turn: the scalar-bodied links' four-lane form.
template <class F>
PMW_AVX2 inline __m256d PerLane(const F& f, __m256d z, __m256d y) {
  alignas(32) double zs[4], ys[4];
  _mm256_store_pd(zs, z);
  _mm256_store_pd(ys, y);
  return _mm256_set_pd(f(zs[3], ys[3]), f(zs[2], ys[2]), f(zs[1], ys[1]),
                       f(zs[0], ys[0]));
}

template <class L>
PMW_AVX2 inline __m256d LinkValue4(const L& link, __m256d z, __m256d y) {
  if constexpr (L::kLanes) {
    return link.Value4(z, y);
  } else {
    return PerLane([&](double a, double b) { return link.Value(a, b); }, z,
                   y);
  }
}

template <class L>
PMW_AVX2 inline __m256d LinkDerivative4(const L& link, __m256d z,
                                        __m256d y) {
  if constexpr (L::kLanes) {
    return link.Derivative4(z, y);
  } else {
    return PerLane([&](double a, double b) { return link.Derivative(a, b); },
                   z, y);
  }
}

// One pass per quad: z, link, mass product in lanes, then the four terms
// join the running sum one at a time in entry order. `count` is a
// multiple of 4. The AVX2 sweeps return to their non-AVX caller for the
// scalar tail rather than calling into it, so the compiler's vzeroupper
// on return always runs before SSE code does.
template <class L>
PMW_AVX2 double ValueAvx2(const L& link, const Sweep& s,
                          const Entry* entries, size_t count, double local) {
  for (size_t i = 0; i < count; i += 4) {
    const Quad q = LoadQuad(s, entries + i);
    alignas(32) double terms[4];
    _mm256_store_pd(terms, _mm256_mul_pd(q.mass, LinkValue4(link, q.z, q.y)));
    local += terms[0];
    local += terms[1];
    local += terms[2];
    local += terms[3];
  }
  return local;
}

// kSignMasks[p] holds the IEEE sign bit in lane l iff bit l of p is set.
struct SignMasks {
  alignas(32) std::uint64_t lanes[16][4];
};
constexpr SignMasks MakeSignMasks() {
  SignMasks m{};
  for (int p = 0; p < 16; ++p) {
    for (int l = 0; l < 4; ++l) {
      m.lanes[p][l] = ((p >> l) & 1) != 0 ? std::uint64_t{1} << 63 : 0;
    }
  }
  return m;
}
constexpr SignMasks kSignMasks = MakeSignMasks();

// grad_j += +-(coeff * c_j) for coordinates fanned four per lane: grad
// slots are independent, so each slot sees the scalar scatter's per-entry
// add sequence. Bits 4k..4k+3 pick block k's sign mask, XORed onto
// coeff * -c_j.
template <int B>
PMW_AVX2 inline void Scatter(std::uint64_t bits, __m256d coeff,
                             const __m256d (&neg_c)[B], __m256d (&acc)[B]) {
#pragma GCC unroll 8
  for (int k = 0; k < B; ++k) {
    const __m256d sign = _mm256_castsi256_pd(
        _mm256_load_si256(reinterpret_cast<const __m256i*>(
            kSignMasks.lanes[(bits >> (4 * k)) & 15])));
    acc[k] = _mm256_add_pd(
        acc[k], _mm256_xor_pd(_mm256_mul_pd(coeff, neg_c[k]), sign));
  }
}

// B = ceil(dim / 4) is a template argument so the accumulators stay in
// registers for the whole sweep. `grad` is padded to 4 * B slots; `count`
// is a multiple of 4.
template <int B, class L>
PMW_AVX2 void AddGradientAvx2(const L& link, const Sweep& s,
                              const Entry* entries, size_t count,
                              double* grad) {
  __m256d acc[B], neg_c[B];
#pragma GCC unroll 8
  for (int k = 0; k < B; ++k) {
    acc[k] = _mm256_load_pd(grad + 4 * k);
    neg_c[k] = _mm256_load_pd(s.neg_c + 4 * k);
  }
  for (size_t i = 0; i < count; i += 4) {
    const Quad q = LoadQuad(s, entries + i);
    const __m256d coeff =
        _mm256_mul_pd(q.mass, LinkDerivative4(link, q.z, q.y));
    Scatter<B>(q.bits[0], _mm256_permute4x64_pd(coeff, 0x00), neg_c, acc);
    Scatter<B>(q.bits[1], _mm256_permute4x64_pd(coeff, 0x55), neg_c, acc);
    Scatter<B>(q.bits[2], _mm256_permute4x64_pd(coeff, 0xAA), neg_c, acc);
    Scatter<B>(q.bits[3], _mm256_permute4x64_pd(coeff, 0xFF), neg_c, acc);
  }
#pragma GCC unroll 8
  for (int k = 0; k < B; ++k) _mm256_store_pd(grad + 4 * k, acc[k]);
}

#endif  // PMW_MARGIN_SIMD

template <class L>
double Value(const L& link, const Sweep& s, const Entry* entries,
             size_t count, double local) {
  size_t done = 0;
#if PMW_MARGIN_SIMD
  if (simd::Enabled()) {
    done = count & ~size_t{3};
    local = ValueAvx2(link, s, entries, done, local);
  }
#endif
  return ValueScalar(link, s, entries + done, count - done, local);
}

template <class L>
void AddGradient(const L& link, const Sweep& s, const Entry* entries,
                 size_t count, double* g) {
  size_t done = 0;
#if PMW_MARGIN_SIMD
  if (simd::Enabled()) {
    using Sweeper = void (*)(const L&, const Sweep&, const Entry*, size_t,
                             double*);
    static constexpr Sweeper kByBlocks[kMaxBlocks] = {
        &AddGradientAvx2<1, L>, &AddGradientAvx2<2, L>, &AddGradientAvx2<3, L>,
        &AddGradientAvx2<4, L>, &AddGradientAvx2<5, L>};
    done = count & ~size_t{3};
    // Exact copies in and out; padding slots are discarded.
    alignas(32) double padded[4 * kMaxBlocks] = {0.0};
    std::copy(g, g + s.dim, padded);
    kByBlocks[(s.dim + 3) / 4 - 1](link, s, entries, done, padded);
    std::copy(padded, padded + s.dim, g);
  }
#endif
  AddGradientScalar(link, s, entries + done, count - done, g);
}

}  // namespace

bool HypercubeMarginValue(const MarginLoss& link, const convex::Vec& theta,
                          const data::Universe& universe, const int* flips,
                          int label_flip, const Entry* entries, size_t count,
                          double* acc) {
  Sweep s;
  if (!Prepare(theta, universe, flips, label_flip, count, &s)) return false;
  WithLink(link, [&](const auto& l) {
    *acc = Value(l, s, entries, count, *acc);
  });
  return true;
}

bool HypercubeMarginAddGradient(const MarginLoss& link,
                                const convex::Vec& theta,
                                const data::Universe& universe,
                                const int* flips, int label_flip,
                                const Entry* entries, size_t count,
                                convex::Vec* grad) {
  Sweep s;
  if (!Prepare(theta, universe, flips, label_flip, count, &s)) return false;
  PMW_CHECK(grad != nullptr);
  PMW_CHECK_EQ(grad->size(), theta.size());
  WithLink(link, [&](const auto& l) {
    AddGradient(l, s, entries, count, grad->data());
  });
  return true;
}

}  // namespace kernels
}  // namespace losses
}  // namespace pmw
