#include "gp/kernel.h"

#include <cmath>
#include <limits>

namespace psens {

double Kernel::SupportRadius(double /*tol*/) const {
  return std::numeric_limits<double>::infinity();
}

double SquaredExponentialKernel::SupportRadius(double tol) const {
  if (tol <= 0.0) return std::numeric_limits<double>::infinity();
  if (tol >= variance_) return 0.0;
  // variance * exp(-d^2 / 2l^2) = tol  =>  d = l sqrt(2 ln(variance/tol)).
  return length_scale_ * std::sqrt(2.0 * std::log(variance_ / tol));
}

double SquaredExponentialKernel::operator()(const Point& a, const Point& b) const {
  const double d = Distance(a, b);
  return variance_ * std::exp(-d * d / (2.0 * length_scale_ * length_scale_));
}

Matrix CovarianceMatrix(const Kernel& kernel, const std::vector<Point>& a,
                        const std::vector<Point>& b) {
  Matrix k(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) k(i, j) = kernel(a[i], b[j]);
  }
  return k;
}

}  // namespace psens
