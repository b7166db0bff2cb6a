// Zipfian sampling for skewed (hot/cold) access patterns.
//
// Workload generators use this to reproduce the paper's observation that
// "small writes are likely to have higher update frequencies than large
// writes": a Zipf-distributed LBA picker concentrates updates on a hot set.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace esp::util {

/// Zipf(N, theta) sampler over ranks {0, ..., n-1} where rank 0 is hottest.
///
/// Uses the Gray et al. (YCSB-style) rejection-inversion-free analytic
/// approximation: draws in O(1) after O(1) setup, accurate for the
/// 0 < theta < 1 range used by the workloads here. theta = 0 degenerates
/// to uniform.
class ZipfSampler {
 public:
  /// @param n      population size (> 0)
  /// @param theta  skew in [0, 1); 0 = uniform, 0.99 = YCSB-default skew
  ZipfSampler(std::uint64_t n, double theta);

  /// Draws a rank in [0, n); lower ranks are exponentially more likely.
  std::uint64_t sample(Xoshiro256& rng) const;

  std::uint64_t population() const noexcept { return n_; }
  double theta() const noexcept { return theta_; }

 private:
  static double zeta(std::uint64_t n, double theta);

  std::uint64_t n_;
  double theta_;
  double alpha_ = 0.0;
  double zetan_ = 0.0;
  double eta_ = 0.0;
  double zeta2theta_ = 0.0;
  double half_pow_theta_ = 0.0;  ///< 0.5^theta: the rank-1 cut of sample()
};

/// Maps Zipf ranks onto LBAs so that the hot set is *scattered* across the
/// logical space (real filesystems do not place hot files contiguously).
/// A fixed multiplicative permutation (odd multiplier mod n) preserves
/// determinism while decorrelating rank from address.
class ScatteredZipf {
 public:
  ScatteredZipf(std::uint64_t n, double theta);

  std::uint64_t sample(Xoshiro256& rng) const;
  std::uint64_t population() const noexcept { return sampler_.population(); }

 private:
  ZipfSampler sampler_;
  std::uint64_t multiplier_;
};

}  // namespace esp::util
