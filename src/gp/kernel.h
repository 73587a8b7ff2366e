#ifndef PSENS_GP_KERNEL_H_
#define PSENS_GP_KERNEL_H_

#include <memory>
#include <vector>

#include "common/geometry.h"
#include "la/matrix.h"

namespace psens {

/// Stationary covariance function over 2-D locations.
class Kernel {
 public:
  virtual ~Kernel() = default;
  /// Covariance between the phenomenon values at `a` and `b`.
  virtual double operator()(const Point& a, const Point& b) const = 0;
  /// Prior variance at any location (k(x, x)).
  virtual double Variance() const = 0;
  /// Conservative support radius: a distance R such that k(a, b) < tol
  /// whenever Distance(a, b) > R. Candidate pruning uses it to skip
  /// observations that cannot meaningfully reduce variance anywhere near
  /// the targets; infinity (the default) disables such pruning for
  /// kernels without a known bound.
  virtual double SupportRadius(double tol) const;
};

/// Squared-exponential kernel: variance * exp(-d^2 / (2 l^2)).
class SquaredExponentialKernel : public Kernel {
 public:
  SquaredExponentialKernel(double variance, double length_scale)
      : variance_(variance), length_scale_(length_scale) {}

  double operator()(const Point& a, const Point& b) const override;
  double Variance() const override { return variance_; }
  double SupportRadius(double tol) const override;

 private:
  double variance_;
  double length_scale_;
};

/// Builds the covariance matrix K with K(i, j) = kernel(a[i], b[j]).
Matrix CovarianceMatrix(const Kernel& kernel, const std::vector<Point>& a,
                        const std::vector<Point>& b);

}  // namespace psens

#endif  // PSENS_GP_KERNEL_H_
