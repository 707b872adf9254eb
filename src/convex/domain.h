// Convex constraint sets Theta with Euclidean projection and a closed-form
// linear minimizer.
//
// Every CM query carries a convex domain Theta (paper Section 2.2). The
// paper's applications use the unit L2 ball (d-boundedness, Section 1.1);
// the library also ships boxes, intervals, and the probability simplex for
// tests and the linear-query reduction. Both multi-dimensional solvers call
// LinearMinimizer: Frank-Wolfe steps towards it, and projected gradient
// descent stops on the duality gap it certifies.

#ifndef PMWCM_CONVEX_DOMAIN_H_
#define PMWCM_CONVEX_DOMAIN_H_

#include <memory>
#include <string>
#include <vector>

#include "convex/vector_ops.h"

namespace pmw {
namespace convex {

/// A closed convex subset of R^d supporting Euclidean projection and
/// linear minimization.
class Domain {
 public:
  virtual ~Domain() = default;

  virtual int dim() const = 0;

  /// Projects *theta onto the set (Euclidean nearest point), in place.
  virtual void Project(Vec* theta) const = 0;

  /// True iff theta is in the set up to `tol`.
  virtual bool Contains(const Vec& theta, double tol = 1e-9) const = 0;

  /// An interior starting point for solvers.
  virtual Vec Center() const = 0;

  /// A point s of the set minimizing <direction, s>. For any subgradient g
  /// of a convex f at theta, f(theta) - min f <= <g, theta - s> where s =
  /// LinearMinimizer(g): the Frank-Wolfe duality gap.
  virtual Vec LinearMinimizer(const Vec& direction) const = 0;

  /// sup_{a, b in Theta} ||a - b||_2; enters the scale parameter S.
  virtual double Diameter() const = 0;

  virtual std::string name() const = 0;
};

/// {theta : ||theta - center||_2 <= radius}. The paper's canonical
/// d-bounded domain is L2Ball(d) = unit ball at the origin.
class L2Ball : public Domain {
 public:
  explicit L2Ball(int dim, double radius = 1.0);
  L2Ball(Vec center, double radius);

  int dim() const override { return static_cast<int>(center_.size()); }
  void Project(Vec* theta) const override;
  bool Contains(const Vec& theta, double tol) const override;
  Vec Center() const override { return center_; }
  Vec LinearMinimizer(const Vec& direction) const override;
  double Diameter() const override { return 2.0 * radius_; }
  std::string name() const override;

  double radius() const { return radius_; }

 private:
  Vec center_;
  double radius_;
};

/// Axis-aligned box [lo_1, hi_1] x ... x [lo_d, hi_d].
class Box : public Domain {
 public:
  Box(Vec lo, Vec hi);

  int dim() const override { return static_cast<int>(lo_.size()); }
  void Project(Vec* theta) const override;
  bool Contains(const Vec& theta, double tol) const override;
  Vec Center() const override;
  Vec LinearMinimizer(const Vec& direction) const override;
  double Diameter() const override;
  std::string name() const override { return "box"; }

 private:
  Vec lo_;
  Vec hi_;
};

/// A one-dimensional interval [lo, hi]; used by the linear-query-as-CM
/// reduction where Theta = [0, 1].
class Interval : public Domain {
 public:
  Interval(double lo, double hi);

  int dim() const override { return 1; }
  void Project(Vec* theta) const override;
  bool Contains(const Vec& theta, double tol) const override;
  Vec Center() const override { return {0.5 * (lo_ + hi_)}; }
  Vec LinearMinimizer(const Vec& direction) const override;
  double Diameter() const override { return hi_ - lo_; }
  std::string name() const override { return "interval"; }

  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  double lo_;
  double hi_;
};

/// The probability simplex {theta >= 0, sum theta = 1}; projection by the
/// sorting algorithm of Held-Wolfe-Crowder.
class Simplex : public Domain {
 public:
  explicit Simplex(int dim);

  int dim() const override { return dim_; }
  void Project(Vec* theta) const override;
  bool Contains(const Vec& theta, double tol) const override;
  Vec Center() const override;
  Vec LinearMinimizer(const Vec& direction) const override;
  double Diameter() const override;
  std::string name() const override { return "simplex"; }

 private:
  int dim_;
};

}  // namespace convex
}  // namespace pmw

#endif  // PMWCM_CONVEX_DOMAIN_H_
