#include "common/math_util.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/logistic_poly.h"
#include "common/simd.h"

namespace pmw {

double Clamp(double x, double lo, double hi) {
  PMW_CHECK_LE(lo, hi);
  return std::min(std::max(x, lo), hi);
}

double LogSumExp(const std::vector<double>& v) {
  PMW_CHECK(!v.empty());
  double m = *std::max_element(v.begin(), v.end());
  if (!std::isfinite(m)) return m;
  double sum = 0.0;
  for (double x : v) sum += std::exp(x - m);
  return m + std::log(sum);
}

double SafeLog(double x) { return std::log(std::max(x, 1e-300)); }

namespace {

using logistic_poly::kAtanhP;
using logistic_poly::kExpQ;
using logistic_poly::kInvLn2;
using logistic_poly::kLn2Hi;
using logistic_poly::kLn2Lo;
using logistic_poly::kMaxArg;
using logistic_poly::kRound;
using logistic_poly::kScaleBits;
using logistic_poly::kUnscale;

// sum_i c[i] x^i for ten terms by Estrin's scheme: pairs, then the x^2,
// x^4 and x^8 levels. LogisticLink's AVX2 twin (losses/margin_kernels.cc)
// repeats this function, ExpNegAbs and Log1PSmall lane by lane, operation
// for operation; change both or neither.
double Estrin10(const double* c, double x) {
  const double x2 = x * x;
  const double x4 = x2 * x2;
  const double x8 = x4 * x4;
  const double c03 = (c[0] + c[1] * x) + (c[2] + c[3] * x) * x2;
  const double c47 = (c[4] + c[5] * x) + (c[6] + c[7] * x) * x2;
  return (c03 + c47 * x4) + (c[8] + c[9] * x) * x8;
}

// e^{-|m|} (common/logistic_poly.h).
double ExpNegAbs(double m) {
  // minpd(kMaxArg, a): the second operand wins unless kMaxArg < a, so a
  // NaN passes through.
  const double a = kMaxArg < std::abs(m) ? kMaxArg : std::abs(m);
  const double x = -a;
  const double kd = x * kInvLn2 + kRound;
  const double n = kd - kRound;
  const double r = (x - n * kLn2Hi) - n * kLn2Lo;
  const double er = 1.0 + (r + (r * r) * Estrin10(kExpQ, r));
  const double scale = std::bit_cast<double>(
      (std::bit_cast<std::uint64_t>(kd) + kScaleBits) << 52);
  return (er * scale) * kUnscale;
}

// log1p(t) for t in [0, 1] (common/logistic_poly.h).
double Log1PSmall(double t) {
  const double u = t / (2.0 + t);
  const double w = u * u;
  const double half_sq = 0.5 * (t * t);
  return t - (half_sq - u * (half_sq + w * Estrin10(kAtanhP, w)));
}

}  // namespace

// std::max(0.0, z) is maxpd(z, 0): 0.0 unless z > 0, also for NaN.
double Log1PExp(double z) {
  return std::max(0.0, z) + Log1PSmall(ExpNegAbs(z));
}

double Sigmoid(double z) {
  const double t = ExpNegAbs(z);
  return (z >= 0.0 ? 1.0 : t) / (1.0 + t);
}

bool AlmostEqual(double a, double b, double atol, double rtol) {
  double diff = std::abs(a - b);
  return diff <= atol + rtol * std::max(std::abs(a), std::abs(b));
}

double KlDivergence(const std::vector<double>& p,
                    const std::vector<double>& q) {
  PMW_CHECK_EQ(p.size(), q.size());
  double sp = 0.0;
  double sq = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    PMW_CHECK_GE(p[i], 0.0);
    PMW_CHECK_GE(q[i], 0.0);
    sp += p[i];
    sq += q[i];
  }
  PMW_CHECK_GT(sp, 0.0);
  PMW_CHECK_GT(sq, 0.0);
  double kl = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    double pi = p[i] / sp;
    if (pi <= 0.0) continue;
    double qi = q[i] / sq;
    kl += pi * (SafeLog(pi) - SafeLog(qi));
  }
  return kl;
}

double PairwiseSum(const double* v, size_t lo, size_t hi) {
  const size_t n = hi - lo;
  if (n == 0) return 0.0;
  if (n == 1) return v[lo];
  if (n == 2) return v[lo] + v[lo + 1];
  // Whole tree nodes of 4 and 8 leaves evaluate in one kernel call; the
  // kernels reproduce this function's association exactly (an n == 8
  // node always splits 4+4 and each 4 splits 2+2), so the recursion and
  // the kernels are interchangeable bit for bit (common/simd.h).
  if (n == 4) return simd::PairwiseLeaf4(v + lo);
  if (n == 8) return simd::PairwiseLeaf8(v + lo);
  const size_t mid = lo + n / 2;
  return PairwiseSum(v, lo, mid) + PairwiseSum(v, mid, hi);
}

int CeilLog2(long long n) {
  PMW_CHECK_GE(n, 1);
  int bits = 0;
  long long v = 1;
  while (v < n) {
    v <<= 1;
    ++bits;
  }
  return bits;
}

long long NextPow2(long long n) {
  PMW_CHECK_GE(n, 1);
  long long v = 1;
  while (v < n) v <<= 1;
  return v;
}

}  // namespace pmw
