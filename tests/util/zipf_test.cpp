#include "util/zipf.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace esp::util {
namespace {

TEST(ZipfSampler, UniformWhenThetaZero) {
  ZipfSampler zipf(100, 0.0);
  Xoshiro256 rng(1);
  std::vector<int> counts(100, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  for (const int c : counts) EXPECT_NEAR(c, n / 100, n / 100 * 0.35);
}

TEST(ZipfSampler, SamplesStayInRange) {
  for (const double theta : {0.0, 0.5, 0.9, 0.99}) {
    ZipfSampler zipf(1000, theta);
    Xoshiro256 rng(2);
    for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.sample(rng), 1000u);
  }
}

TEST(ZipfSampler, SkewConcentratesOnLowRanks) {
  ZipfSampler zipf(10000, 0.9);
  Xoshiro256 rng(3);
  int in_top_100 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) in_top_100 += (zipf.sample(rng) < 100);
  // With theta=0.9 over 10k items, the top 1% draws far more than 1%.
  EXPECT_GT(static_cast<double>(in_top_100) / n, 0.30);
}

TEST(ZipfSampler, HigherThetaMoreSkew) {
  Xoshiro256 rng(4);
  auto top_share = [&rng](double theta) {
    ZipfSampler zipf(10000, theta);
    int top = 0;
    const int n = 30000;
    for (int i = 0; i < n; ++i) top += (zipf.sample(rng) < 10);
    return static_cast<double>(top) / n;
  };
  EXPECT_GT(top_share(0.95), top_share(0.5));
}

TEST(ZipfSampler, RankZeroIsHottest) {
  ZipfSampler zipf(1000, 0.9);
  Xoshiro256 rng(5);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[500]);
}

/// ZipfSampler::sample as written before 0.5^theta moved into the
/// constructor: recomputes it on every draw (exact zeta, n <= 2^20).
class ReferenceZipf {
 public:
  ReferenceZipf(std::uint64_t n, double theta) : n_(n), theta_(theta) {
    alpha_ = 1.0 / (1.0 - theta_);
    for (std::uint64_t i = 1; i <= n_; ++i) zetan_ += std::pow(i, -theta_);
    const double zeta2theta = 1.0 + std::pow(2, -theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2theta / zetan_);
  }
  std::uint64_t sample(Xoshiro256& rng) const {
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank >= n_ ? n_ - 1 : rank;
  }

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_ = 0.0;
  double zetan_ = 0.0;
  double eta_ = 0.0;
};

TEST(ZipfSampler, DrawsMatchThePerDrawPowFormula) {
  for (const double theta : {0.5, 0.9, 0.99}) {
    for (const std::uint64_t n : {std::uint64_t{1000}, std::uint64_t{1} << 20}) {
      ZipfSampler zipf(n, theta);
      const ReferenceZipf ref(n, theta);
      Xoshiro256 a(11), b(11);
      for (int i = 0; i < 100000; ++i)
        ASSERT_EQ(zipf.sample(a), ref.sample(b))
            << "draw " << i << " n=" << n << " theta=" << theta;
    }
  }
}

TEST(ScatteredZipf, ScattersHotSetAcrossSpace) {
  ScatteredZipf zipf(10000, 0.9);
  Xoshiro256 rng(6);
  // The hottest addresses should NOT all live below 100.
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) low += (zipf.sample(rng) < 100);
  EXPECT_LT(static_cast<double>(low) / n, 0.2);
}

TEST(ScatteredZipf, StillSkewed) {
  ScatteredZipf zipf(10000, 0.9);
  Xoshiro256 rng(7);
  std::vector<int> counts(10000, 0);
  for (int i = 0; i < 200000; ++i) ++counts[zipf.sample(rng)];
  int max_count = 0;
  for (const int c : counts) max_count = std::max(max_count, c);
  // One address dominates far beyond the uniform expectation of 20.
  EXPECT_GT(max_count, 200);
}

}  // namespace
}  // namespace esp::util
