// Generalized-linear margin losses over labeled records.
//
// Every loss here has the form l(theta; (x, y)) = link(<theta, x>, y) for a
// convex link, i.e. they are generalized linear models (paper Section
// 4.2.2), and each is normalized to be 1-Lipschitz over records with
// ||x||_2 <= 1 and labels y in {-1, +1} and parameters ||theta||_2 <= 1
// (paper Section 1.1's scaling convention).

#ifndef PMWCM_LOSSES_MARGIN_LOSSES_H_
#define PMWCM_LOSSES_MARGIN_LOSSES_H_

#include <algorithm>
#include <cmath>
#include <string>

#include "common/math_util.h"
#include "convex/loss_function.h"

namespace pmw {
namespace losses {

/// Tags the concrete link so the batch kernels (losses/margin_kernels.cc)
/// can dispatch to the inlined static Eval bodies below instead of a
/// per-entry virtual call. kGeneric means "only the virtual Link is
/// available" and keeps unknown subclasses correct.
enum class LinkKind {
  kGeneric,
  kSquared,
  kLogistic,
  kHinge,
  kAbsolute,
  kHuber,
};

/// Shared base: l(theta; (x,y)) = link(<theta, x.features>, y).
/// Subclasses provide the scalar link and its derivative in the margin.
class MarginLoss : public convex::LossFunction {
 public:
  explicit MarginLoss(int dim) : dim_(dim) {}

  int dim() const override { return dim_; }
  double Value(const convex::Vec& theta, const data::Row& x) const override;
  void AddGradient(const convex::Vec& theta, const data::Row& x, double weight,
                   convex::Vec* grad) const override;
  bool is_generalized_linear() const override { return true; }

  // Hypercube-universe sweeps go through the bit-identical batch kernels
  // (losses/margin_kernels.h); anything else falls back to the row loop.
  bool BatchValue(const convex::Vec& theta, const data::Universe& universe,
                  const std::pair<int, double>* entries, size_t count,
                  double* acc) const override;
  bool BatchAddGradient(const convex::Vec& theta,
                        const data::Universe& universe,
                        const std::pair<int, double>* entries, size_t count,
                        convex::Vec* grad) const override;

  /// link(z, y) — convex in z for each fixed label y.
  virtual double Link(double z, double y) const = 0;
  /// d/dz link(z, y) (a subderivative at kinks).
  virtual double LinkDerivative(double z, double y) const = 0;

  /// Which concrete link this is (for the batch kernels' inline dispatch).
  virtual LinkKind link_kind() const { return LinkKind::kGeneric; }
  /// The link's scalar parameter when it has one (Huber's delta).
  virtual double link_param() const { return 0.0; }

 private:
  int dim_;
};

/// Scaled squared loss (linear regression):
/// l = (1/4)(<theta,x> - y)^2. The 1/4 makes it 1-Lipschitz on the unit
/// ball with |y| <= 1 (|z - y| <= 2).
class SquaredLoss : public MarginLoss {
 public:
  explicit SquaredLoss(int dim) : MarginLoss(dim) {}
  // The static Eval bodies are the single source of truth for the link:
  // the virtual Link and the batch kernels' inline dispatch both call
  // them, so the two paths cannot diverge.
  static double Eval(double z, double y) { return 0.25 * Sq(z - y); }
  static double EvalDerivative(double z, double y) { return 0.5 * (z - y); }
  double Link(double z, double y) const override { return Eval(z, y); }
  double LinkDerivative(double z, double y) const override {
    return EvalDerivative(z, y);
  }
  LinkKind link_kind() const override { return LinkKind::kSquared; }
  double lipschitz() const override { return 1.0; }
  std::string name() const override { return "squared"; }
};

/// Logistic loss: l = log(1 + exp(-y <theta,x>)); 1-Lipschitz.
/// Eval is Log1PExp and EvalDerivative is -y * Sigmoid: the fixed
/// polynomial of common/logistic_poly.h (e^-|m| by a Cody–Waite reduction
/// and a degree-11 polynomial, log1p by the atanh series), within 4 and
/// 3 ulp of the exact values. The batch kernels' AVX2 twin reproduces it
/// bit for bit (losses/margin_kernels.h).
class LogisticLoss : public MarginLoss {
 public:
  explicit LogisticLoss(int dim) : MarginLoss(dim) {}
  static double Eval(double z, double y) { return Log1PExp(-y * z); }
  static double EvalDerivative(double z, double y) {
    return -y * Sigmoid(-y * z);
  }
  double Link(double z, double y) const override { return Eval(z, y); }
  double LinkDerivative(double z, double y) const override {
    return EvalDerivative(z, y);
  }
  LinkKind link_kind() const override { return LinkKind::kLogistic; }
  double lipschitz() const override { return 1.0; }
  std::string name() const override { return "logistic"; }
};

/// Hinge loss (SVM): l = max(0, 1 - y <theta,x>); 1-Lipschitz, non-smooth.
class HingeLoss : public MarginLoss {
 public:
  explicit HingeLoss(int dim) : MarginLoss(dim) {}
  static double Eval(double z, double y) {
    return std::max(0.0, 1.0 - y * z);
  }
  static double EvalDerivative(double z, double y) {
    return (1.0 - y * z > 0.0) ? -y : 0.0;
  }
  double Link(double z, double y) const override { return Eval(z, y); }
  double LinkDerivative(double z, double y) const override {
    return EvalDerivative(z, y);
  }
  LinkKind link_kind() const override { return LinkKind::kHinge; }
  double lipschitz() const override { return 1.0; }
  std::string name() const override { return "hinge"; }
};

/// Absolute (L1 regression) loss: l = |<theta,x> - y|; 1-Lipschitz.
class AbsoluteLoss : public MarginLoss {
 public:
  explicit AbsoluteLoss(int dim) : MarginLoss(dim) {}
  static double Eval(double z, double y) { return std::abs(z - y); }
  static double EvalDerivative(double z, double y) {
    if (z > y) return 1.0;
    if (z < y) return -1.0;
    return 0.0;
  }
  double Link(double z, double y) const override { return Eval(z, y); }
  double LinkDerivative(double z, double y) const override {
    return EvalDerivative(z, y);
  }
  LinkKind link_kind() const override { return LinkKind::kAbsolute; }
  double lipschitz() const override { return 1.0; }
  std::string name() const override { return "absolute"; }
};

/// Huber loss on the residual r = <theta,x> - y with transition delta:
/// quadratic inside |r| <= delta, linear outside; Lipschitz min(2, delta)
/// ... with delta <= 1 it is 1-Lipschitz and smooth.
class HuberLoss : public MarginLoss {
 public:
  HuberLoss(int dim, double delta = 1.0);
  static double Eval(double z, double y, double delta) {
    double r = z - y;
    if (std::abs(r) <= delta) return 0.5 * Sq(r);
    return delta * (std::abs(r) - 0.5 * delta);
  }
  static double EvalDerivative(double z, double y, double delta) {
    return Clamp(z - y, -delta, delta);
  }
  double Link(double z, double y) const override {
    return Eval(z, y, delta_);
  }
  double LinkDerivative(double z, double y) const override {
    return EvalDerivative(z, y, delta_);
  }
  LinkKind link_kind() const override { return LinkKind::kHuber; }
  double link_param() const override { return delta_; }
  double lipschitz() const override;
  std::string name() const override { return "huber"; }

 private:
  double delta_;
};

}  // namespace losses
}  // namespace pmw

#endif  // PMWCM_LOSSES_MARGIN_LOSSES_H_
