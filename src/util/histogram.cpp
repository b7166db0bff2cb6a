#include "util/histogram.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace esp::util {

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {
  assert(hi > lo);
  assert(buckets > 0);
}

bool Histogram::merge(const Histogram& other) noexcept {
  if (other.lo_ != lo_ || other.hi_ != hi_ ||
      other.counts_.size() != counts_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  total_ += other.total_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  return true;
}

Histogram Histogram::delta_since(const Histogram& earlier) const {
  Histogram out = *this;
  if (earlier.lo_ != lo_ || earlier.hi_ != hi_ ||
      earlier.counts_.size() != counts_.size()) {
    return out;
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    assert(counts_[i] >= earlier.counts_[i]);
    out.counts_[i] -= earlier.counts_[i];
  }
  out.total_ -= earlier.total_;
  out.underflow_ -= earlier.underflow_;
  out.overflow_ -= earlier.overflow_;
  return out;
}

double Histogram::percentile(double q) const noexcept {
  if (total_ == 0) return lo_;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total_ - 1));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (cum + counts_[i] > target) {
      const double frac =
          static_cast<double>(target - cum) / static_cast<double>(counts_[i]);
      return lo_ + (static_cast<double>(i) + frac) * width_;
    }
    cum += counts_[i];
  }
  return hi_;
}

std::string Histogram::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu p50=%.3g p95=%.3g p99=%.3g p999=%.3g",
                static_cast<unsigned long long>(total_), percentile(0.50),
                percentile(0.95), percentile(0.99), percentile(0.999));
  std::string out = buf;
  if (underflow_ || overflow_) {
    // Clamped samples distort the edge buckets; surface them instead of
    // letting the clamp pass silently.
    std::snprintf(buf, sizeof(buf), " clamped=[uf=%llu of=%llu]",
                  static_cast<unsigned long long>(underflow_),
                  static_cast<unsigned long long>(overflow_));
    out += buf;
  }
  return out;
}

void Histogram::reset() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  underflow_ = 0;
  overflow_ = 0;
}

void Histogram::save_state(StateWriter& w) const {
  w.tag("HIST");
  w.f64(lo_);
  w.f64(hi_);
  w.pod_vec(counts_);
  w.u64(total_);
  w.u64(underflow_);
  w.u64(overflow_);
}

void Histogram::load_state(StateReader& r) {
  r.tag("HIST");
  const double lo = r.f64();
  const double hi = r.f64();
  std::vector<std::uint64_t> counts;
  r.pod_vec(counts);
  if (lo != lo_ || hi != hi_ || counts.size() != counts_.size())
    throw std::runtime_error("Histogram::load_state: shape mismatch");
  counts_ = std::move(counts);
  total_ = r.u64();
  underflow_ = r.u64();
  overflow_ = r.u64();
}

}  // namespace esp::util
