#include "convex/domain.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_util.h"

namespace pmw {
namespace convex {

L2Ball::L2Ball(int dim, double radius) : center_(Zeros(dim)), radius_(radius) {
  PMW_CHECK_GE(dim, 1);
  PMW_CHECK_GT(radius, 0.0);
}

L2Ball::L2Ball(Vec center, double radius)
    : center_(std::move(center)), radius_(radius) {
  PMW_CHECK(!center_.empty());
  PMW_CHECK_GT(radius, 0.0);
}

void L2Ball::Project(Vec* theta) const {
  PMW_CHECK(theta != nullptr);
  PMW_CHECK_EQ(theta->size(), center_.size());
  double dist = Dist2(*theta, center_);
  if (dist <= radius_) return;
  double scale = radius_ / dist;
  for (size_t i = 0; i < theta->size(); ++i) {
    (*theta)[i] = center_[i] + scale * ((*theta)[i] - center_[i]);
  }
}

bool L2Ball::Contains(const Vec& theta, double tol) const {
  PMW_CHECK_EQ(theta.size(), center_.size());
  return Dist2(theta, center_) <= radius_ + tol;
}

Vec L2Ball::LinearMinimizer(const Vec& direction) const {
  PMW_CHECK_EQ(direction.size(), center_.size());
  // centre - radius * direction / ||direction||.
  double norm = Norm2(direction);
  Vec s = center_;
  if (norm > 1e-14) AddScaledInPlace(&s, direction, -radius_ / norm);
  return s;
}

std::string L2Ball::name() const {
  return "l2ball(d=" + std::to_string(dim()) + ")";
}

Box::Box(Vec lo, Vec hi) : lo_(std::move(lo)), hi_(std::move(hi)) {
  PMW_CHECK_EQ(lo_.size(), hi_.size());
  PMW_CHECK(!lo_.empty());
  for (size_t i = 0; i < lo_.size(); ++i) PMW_CHECK_LE(lo_[i], hi_[i]);
}

void Box::Project(Vec* theta) const {
  PMW_CHECK(theta != nullptr);
  PMW_CHECK_EQ(theta->size(), lo_.size());
  for (size_t i = 0; i < lo_.size(); ++i) {
    (*theta)[i] = Clamp((*theta)[i], lo_[i], hi_[i]);
  }
}

bool Box::Contains(const Vec& theta, double tol) const {
  PMW_CHECK_EQ(theta.size(), lo_.size());
  for (size_t i = 0; i < lo_.size(); ++i) {
    if (theta[i] < lo_[i] - tol || theta[i] > hi_[i] + tol) return false;
  }
  return true;
}

Vec Box::Center() const {
  Vec c(lo_.size());
  for (size_t i = 0; i < lo_.size(); ++i) c[i] = 0.5 * (lo_[i] + hi_[i]);
  return c;
}

Vec Box::LinearMinimizer(const Vec& direction) const {
  PMW_CHECK_EQ(direction.size(), lo_.size());
  Vec s(lo_.size());
  for (size_t i = 0; i < lo_.size(); ++i) {
    s[i] = direction[i] >= 0.0 ? lo_[i] : hi_[i];
  }
  return s;
}

double Box::Diameter() const {
  double acc = 0.0;
  for (size_t i = 0; i < lo_.size(); ++i) acc += Sq(hi_[i] - lo_[i]);
  return std::sqrt(acc);
}

Interval::Interval(double lo, double hi) : lo_(lo), hi_(hi) {
  PMW_CHECK_LT(lo, hi);
}

void Interval::Project(Vec* theta) const {
  PMW_CHECK(theta != nullptr);
  PMW_CHECK_EQ(theta->size(), 1u);
  (*theta)[0] = Clamp((*theta)[0], lo_, hi_);
}

bool Interval::Contains(const Vec& theta, double tol) const {
  PMW_CHECK_EQ(theta.size(), 1u);
  return theta[0] >= lo_ - tol && theta[0] <= hi_ + tol;
}

Vec Interval::LinearMinimizer(const Vec& direction) const {
  PMW_CHECK_EQ(direction.size(), 1u);
  return {direction[0] >= 0.0 ? lo_ : hi_};
}

Simplex::Simplex(int dim) : dim_(dim) { PMW_CHECK_GE(dim, 1); }

void Simplex::Project(Vec* theta) const {
  PMW_CHECK(theta != nullptr);
  PMW_CHECK_EQ(static_cast<int>(theta->size()), dim_);
  // Sort-based Euclidean projection onto {x >= 0, sum x = 1}.
  Vec sorted = *theta;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  double cumulative = 0.0;
  double tau = 0.0;
  int rho = 0;
  for (int i = 0; i < dim_; ++i) {
    cumulative += sorted[i];
    double candidate = (cumulative - 1.0) / static_cast<double>(i + 1);
    if (sorted[i] - candidate > 0.0) {
      rho = i + 1;
      tau = candidate;
    }
  }
  PMW_CHECK_GE(rho, 1);
  for (int i = 0; i < dim_; ++i) {
    (*theta)[i] = std::max((*theta)[i] - tau, 0.0);
  }
}

bool Simplex::Contains(const Vec& theta, double tol) const {
  PMW_CHECK_EQ(static_cast<int>(theta.size()), dim_);
  double sum = 0.0;
  for (double x : theta) {
    if (x < -tol) return false;
    sum += x;
  }
  return std::abs(sum - 1.0) <= tol;
}

Vec Simplex::Center() const { return Vec(dim_, 1.0 / dim_); }

Vec Simplex::LinearMinimizer(const Vec& direction) const {
  PMW_CHECK_EQ(static_cast<int>(direction.size()), dim_);
  // The vertex with the smallest direction coordinate.
  int best = 0;
  for (int i = 1; i < dim_; ++i) {
    if (direction[i] < direction[best]) best = i;
  }
  Vec s = Zeros(dim_);
  s[best] = 1.0;
  return s;
}

double Simplex::Diameter() const { return std::sqrt(2.0); }

}  // namespace convex
}  // namespace pmw
