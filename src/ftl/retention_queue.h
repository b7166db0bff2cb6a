// Age-bucketed queue of programmed subpages awaiting retention eviction.
//
// The paper's retention-age eviction (Sec. 4.3) needs "every valid subpage
// written more than retention_evict_age ago" once per scan interval. The
// scan-based implementation walks every owned block x every page -- O(device)
// per invocation, which dwarfs per-request work at production geometry.
// This queue records each program at write time into coarse time buckets so
// a scan touches only entries old enough to matter:
//
//   * push() appends (block, page, written_at) to the bucket
//     floor(written_at / bucket_width);
//   * collect_expired() drains every bucket that can possibly hold an
//     expired entry (bucket start < conservative_cutoff + one bucket of
//     slack, so floating-point rounding of `now - age` can never hide a
//     borderline entry) and tests each entry with the caller's EXACT
//     predicate -- the same `now - written_at > age` comparison the linear
//     scan used, preserving bit-identical eviction decisions. Entries in a
//     drained bucket that are not yet expired are kept in place.
//
// Entries are never removed on invalidate/GC/overwrite; the caller filters
// stale entries against current block metadata when a scan drains them
// (owned + valid + written_at still matches). A matching triple implies the
// linear scan would have made the identical decision, because the decision
// depends only on those fields.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "util/serialize.h"
#include "util/sim_time.h"

namespace esp::ftl {

class RetentionQueue {
 public:
  struct Entry {
    std::size_t block_idx = 0;
    std::uint32_t page = 0;
    std::uint32_t pad = 0;  ///< explicit, so the raw archive is all zero
    SimTime written_at = 0.0;
  };
  static_assert(sizeof(Entry) == 24, "snapshot v1 RETQ layout");

  /// bucket_width is the coarseness of the age buckets, in simulated time
  /// units; a fraction of the eviction age (e.g. age/32) keeps the
  /// boundary-bucket re-scan negligible. Must be > 0.
  explicit RetentionQueue(SimTime bucket_width)
      : width_(bucket_width > 0.0 ? bucket_width : 1.0) {}

  void push(std::size_t block_idx, std::uint32_t page,
            SimTime written_at) {
    buckets_[bucket_of(written_at)].push_back(
        Entry{.block_idx = block_idx, .page = page, .written_at = written_at});
    ++size_;
  }

  /// Appends to `out` every queued entry for which expired(written_at) is
  /// true and removes it from the queue. `conservative_cutoff` bounds the
  /// search (typically now - age): only buckets starting below
  /// cutoff + bucket_width are examined, and within those the exact
  /// predicate decides. Entries examined but not expired stay queued.
  template <typename Expired>
  void collect_expired(SimTime conservative_cutoff, Expired&& expired,
                       std::vector<Entry>& out) {
    auto it = buckets_.begin();
    while (it != buckets_.end()) {
      const SimTime bucket_start =
          static_cast<SimTime>(it->first) * width_;
      if (bucket_start >= conservative_cutoff + width_) break;
      auto& entries = it->second;
      std::size_t kept = 0;
      for (const Entry& e : entries) {
        if (expired(e.written_at)) {
          out.push_back(e);
        } else {
          entries[kept++] = e;
        }
      }
      size_ -= entries.size() - kept;
      entries.resize(kept);
      if (entries.empty()) {
        it = buckets_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Queued entries, stale ones included (introspection/tests).
  std::size_t size() const { return size_; }
  std::size_t bucket_count() const { return buckets_.size(); }

  void clear() {
    buckets_.clear();
    size_ = 0;
  }

  /// Snapshot support: bucket keys and per-bucket entry order are
  /// preserved exactly (std::map iteration is key-ordered, so the on-disk
  /// layout is canonical).
  void save_state(util::StateWriter& w) const {
    w.tag("RETQ");
    w.f64(width_);
    w.u64(buckets_.size());
    for (const auto& [key, entries] : buckets_) {
      w.i64(key);
      w.pod_vec(entries);
    }
    w.u64(size_);
  }
  void load_state(util::StateReader& r) {
    r.tag("RETQ");
    const SimTime width = r.f64();
    if (width != width_)
      throw std::runtime_error(
          "RetentionQueue::load_state: bucket width mismatch");
    const std::uint64_t n = r.u64();
    buckets_.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::int64_t key = r.i64();
      std::vector<Entry> entries;
      r.pod_vec(entries);
      buckets_.emplace(key, std::move(entries));
    }
    size_ = r.u64();
  }

 private:
  std::int64_t bucket_of(SimTime t) const {
    return static_cast<std::int64_t>(t / width_);
  }

  SimTime width_;
  // Ordered map: collect_expired walks oldest buckets first and stops at
  // the first bucket that cannot contain an expired entry.
  std::map<std::int64_t, std::vector<Entry>> buckets_;
  std::size_t size_ = 0;
};

}  // namespace esp::ftl
