#include "util/zipf.h"

#include <cassert>
#include <cmath>

namespace esp::util {

double ZipfSampler::zeta(std::uint64_t n, double theta) {
  // Exact sum for small n; two-term Euler-Maclaurin tail for large n keeps
  // setup O(1)-ish without visible sampling error at our population sizes.
  constexpr std::uint64_t kExactLimit = 1u << 20;
  if (n <= kExactLimit) {
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i) sum += std::pow(i, -theta);
    return sum;
  }
  double sum = zeta(kExactLimit, theta);
  const double a = static_cast<double>(kExactLimit);
  const double b = static_cast<double>(n);
  // integral of x^-theta from a to b plus trapezoid correction
  sum += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) / (1.0 - theta);
  sum += 0.5 * (std::pow(b, -theta) - std::pow(a, -theta));
  return sum;
}

ZipfSampler::ZipfSampler(std::uint64_t n, double theta) : n_(n), theta_(theta) {
  assert(n > 0);
  assert(theta >= 0.0 && theta < 1.0);
  if (theta_ > 0.0) {
    alpha_ = 1.0 / (1.0 - theta_);
    zetan_ = zeta(n_, theta_);
    zeta2theta_ = zeta(2, theta_);
    half_pow_theta_ = std::pow(0.5, theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2theta_ / zetan_);
  }
}

std::uint64_t ZipfSampler::sample(Xoshiro256& rng) const {
  if (theta_ == 0.0) return rng.below(n_);
  const double u = rng.uniform();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + half_pow_theta_) return 1;
  const auto rank = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

ScatteredZipf::ScatteredZipf(std::uint64_t n, double theta)
    : sampler_(n, theta),
      // Any odd multiplier is a bijection mod 2^k; for general n we use
      // (rank * multiplier) % n with a multiplier coprime-ish to typical n.
      multiplier_(0x9e3779b97f4a7c15ull | 1ull) {}

std::uint64_t ScatteredZipf::sample(Xoshiro256& rng) const {
  const std::uint64_t rank = sampler_.sample(rng);
  return (rank * multiplier_) % sampler_.population();
}

}  // namespace esp::util
