// The fixed polynomial behind Log1PExp and Sigmoid (common/math_util.h).
//
// Both functions start from t = e^{-|m|} in (0, 1]:
//
//   softplus(m) = log(1 + e^m) = max(m, 0) + log1p(t),
//   sigmoid(m)  = 1 / (1 + e^-m) = (m >= 0 ? 1 : t) / (1 + t).
//
// e^x for x = -|m| (clamped to kMaxArg, which keeps a NaN):
//   * n = round(x / ln 2) by the magic-constant round: kd = x * kInvLn2 +
//     kRound leaves n in kd's low mantissa bits, and n = kd - kRound;
//   * r = (x - n * kLn2Hi) - n * kLn2Lo, the Cody–Waite split: kLn2Hi has
//     21 trailing zero bits, so n * kLn2Hi is exact for |n| <= 1076;
//   * e^r = 1 + (r + r^2 * q(r)), q the degree-9 Chebyshev fit kExpQ of
//     (e^r - 1 - r) / r^2 on [-ln2 / 2, ln2 / 2] (|error| < 1.1e-16);
//   * 2^n from kd's bits by integer add and shift, biased by
//     kScaleBits = 64 so that n down to -1076 stays a normal double;
//     t = (e^r * 2^(n + 64)) * 2^-64 then rounds once, also to a
//     subnormal.
// log1p(t) on [0, 1], from the atanh series log1p(t) = 2 atanh(u),
// u = t / (2 + t) in [0, 1/3], in fdlibm's form
//   log1p(t) = t - (t^2/2 - u * (t^2/2 + w * p(w))),  w = u^2,
// p the degree-9 Chebyshev fit kAtanhP of 2 (atanh(u) / u - 1) / w on
// [0, 1/9] (|error| < 1e-16). u is formed from t itself: no rounded
// s = 1 + t enters, so no (t - (s - 1)) / s correction for its rounding
// is needed (a log(s) form with that correction measured 3.2 ulp, this
// one 1.9). Both polynomials are evaluated by Estrin's scheme (pairs,
// then the x^2, x^4 and x^8 levels), a dependency chain of four
// multiply-adds instead of Horner's nine.
//
// Measured against a long double reference (log1pl(expl(z)) and
// 1 / (1 + expl(-z))) over 6 * 10^6 points with |z| <= 700, half of them
// log-uniform in |z| from 2^-30: softplus is within 1.9 ulp and sigmoid
// within 2.2 ulp, where libm's log1p(exp(z)) and 1 / (1 + exp(-z)) read
// 2.5 and 2.2. tests/common_test.cc holds them to 4 and 3 ulp.
//
// The scalar bodies (common/math_util.cc) and the AVX2 twins
// (losses/margin_kernels.cc, LogisticLink) run these constants through
// the same IEEE operations in the same order — mul then add, never
// fused; minpd/maxpd picks written as the scalar ternaries they are;
// ordered-compare blends — so the two agree bit for bit on every input,
// the argument PairwiseLeaf4/8 rests on (common/simd.h).

#ifndef PMWCM_COMMON_LOGISTIC_POLY_H_
#define PMWCM_COMMON_LOGISTIC_POLY_H_

#include <cstdint>

namespace pmw {
namespace logistic_poly {

// e^-746 is below half the smallest subnormal, so every |m| past it
// gives t == 0.0; the clamp keeps n >= -1076.
inline constexpr double kMaxArg = 746.0;
inline constexpr double kInvLn2 = 0x1.71547652b82fep0;
// 1.5 * 2^52: adding it rounds to an integer in the low mantissa bits.
inline constexpr double kRound = 0x1.8p52;
inline constexpr double kLn2Hi = 0x1.62e42feep-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
// (kd's bits + 1023 + 64) << 52 is the double 2^(n + 64).
inline constexpr std::uint64_t kScaleBits = 1023 + 64;
inline constexpr double kUnscale = 0x1p-64;

/// q(r) = sum_i kExpQ[i] r^i.
inline constexpr double kExpQ[10] = {
    0x1.0000000000001p-1,  0x1.5555555555556p-3,  0x1.5555555553d4ap-5,
    0x1.11111111109acp-7,  0x1.6c16c178956e5p-10, 0x1.a01a01a7ca02ap-13,
    0x1.a019b8e7f5905p-16, 0x1.71de0d977fa43p-19, 0x1.2891b19a9133bp-22,
    0x1.af38e01ae4ebbp-26};

/// p(w) = sum_i kAtanhP[i] w^i.
inline constexpr double kAtanhP[10] = {
    0x1.5555555555555p-1,  0x1.999999999a3dfp-2,  0x1.24924923d422cp-2,
    0x1.c71c727164156p-3,  0x1.745cf0aa6a011p-3,  0x1.3b18b34a260a3p-3,
    0x1.10ac6a3d3e5f6p-3,  0x1.eb913ba3ef69ep-4,  0x1.687604d0c86a1p-4,
    0x1.4b0ed4be611b2p-3};

}  // namespace logistic_poly
}  // namespace pmw

#endif  // PMWCM_COMMON_LOGISTIC_POLY_H_
