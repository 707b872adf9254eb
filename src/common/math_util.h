// Scalar math helpers used across the library.

#ifndef PMWCM_COMMON_MATH_UTIL_H_
#define PMWCM_COMMON_MATH_UTIL_H_

#include <cstddef>
#include <vector>

namespace pmw {

/// x^2.
inline double Sq(double x) { return x * x; }

/// Clamps x into [lo, hi].
double Clamp(double x, double lo, double hi);

/// log(sum_i exp(v_i)) computed stably (max subtraction). Requires non-empty.
double LogSumExp(const std::vector<double>& v);

/// Natural log with a floor at 1e-300 to avoid -inf on exact zeros.
double SafeLog(double x);

/// Softplus log(1 + exp(z)) = max(z, 0) + log1p(exp(-|z|)), from the
/// fixed polynomial in common/logistic_poly.h (within 4 ulp; +inf at
/// +inf, NaN for NaN).
double Log1PExp(double z);

/// Logistic sigmoid 1 / (1 + exp(-z)) from the same polynomial (within
/// 3 ulp; exactly 0.5 at 0).
double Sigmoid(double z);

/// True iff |a - b| <= atol + rtol * max(|a|, |b|).
bool AlmostEqual(double a, double b, double atol = 1e-9, double rtol = 1e-9);

/// Kullback-Leibler divergence KL(p || q) between distributions given as
/// (not necessarily normalized) non-negative vectors of equal length.
/// Entries where p is 0 contribute 0; entries where q is 0 but p > 0
/// contribute a large finite penalty instead of infinity.
double KlDivergence(const std::vector<double>& p, const std::vector<double>& q);

/// Sum of v[lo, hi) by pairwise (cascade) reduction with a fixed split
/// rule: a range splits at lo + (hi - lo) / 2 all the way down to
/// singletons. The reduction tree therefore depends only on the absolute
/// index range — NOT on who computes which part — so the sum over a range
/// equals the fold of its two halves' sums, bit for bit. This is what
/// lets the sharded hypothesis normalizer (core/sharded_hypothesis.h)
/// decompose across K = 2^t contiguous domain shards and still combine
/// to exactly the K = 1 value.
double PairwiseSum(const double* v, size_t lo, size_t hi);

/// ceil(log2(n)) for n >= 1.
int CeilLog2(long long n);

/// Next power of two >= n (n >= 1).
long long NextPow2(long long n);

}  // namespace pmw

#endif  // PMWCM_COMMON_MATH_UTIL_H_
