// Fixed-bucket histogram with percentile queries.
//
// Used for latency distributions (per-request service time) and for the
// cell model's bit-error-count distributions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/serialize.h"

namespace esp::util {

/// Linear-bucket histogram over [lo, hi); out-of-range samples clamp into
/// the first/last bucket so totals are never lost.
class Histogram {
 public:
  /// @param lo       lower bound of the first bucket
  /// @param hi       upper bound of the last bucket (must be > lo)
  /// @param buckets  number of buckets (must be > 0)
  Histogram(double lo, double hi, std::size_t buckets);

  /// Inline: observers add several samples per simulated request.
  void add(double x) noexcept {
    std::size_t idx;
    if (x < lo_) {
      idx = 0;
      ++underflow_;
    } else if (x >= hi_) {
      idx = counts_.size() - 1;
      ++overflow_;
    } else {
      idx = static_cast<std::size_t>((x - lo_) / width_);
      if (idx > counts_.size() - 1) idx = counts_.size() - 1;
    }
    ++counts_[idx];
    ++total_;
  }

  /// Accumulates `other` into this histogram. Both must have identical
  /// shape (lo, hi, bucket count); returns false (and leaves this
  /// unchanged) on a shape mismatch.
  bool merge(const Histogram& other) noexcept;

  /// Per-bucket difference against an EARLIER SNAPSHOT of this histogram:
  /// returns a histogram holding only the samples added since `earlier`
  /// was copied. `earlier` must have the same shape and bucket counts
  /// <= this one's (it was this histogram at some earlier point); on a
  /// shape mismatch a copy of *this is returned unchanged.
  Histogram delta_since(const Histogram& earlier) const;

  std::uint64_t total() const noexcept { return total_; }

  /// Samples that fell below lo() and were clamped into the first bucket.
  std::uint64_t underflow() const noexcept { return underflow_; }
  /// Samples at/above hi() that were clamped into the last bucket.
  std::uint64_t overflow() const noexcept { return overflow_; }

  /// Value at the given quantile q in [0, 1] (bucket lower edge +
  /// within-bucket linear interpolation). Returns lo() for an empty
  /// histogram.
  double percentile(double q) const noexcept;

  double lo() const noexcept { return lo_; }
  double hi() const noexcept { return hi_; }
  std::size_t bucket_count() const noexcept { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }

  /// Compact one-line rendering ("p50=... p99=... max-bucket=[a,b)").
  std::string summary() const;

  void reset() noexcept;

  /// Snapshot support. Shape (lo, hi, bucket count) is saved and checked
  /// on load so a histogram restored into a differently configured owner
  /// fails loudly.
  void save_state(StateWriter& w) const;
  void load_state(StateReader& r);

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
};

}  // namespace esp::util
