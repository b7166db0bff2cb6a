// WriteBuffer differential test: seeded random op sequences over every
// public call, run side by side against a reference model of the original
// std::unordered_map + std::deque implementation. The reference is the
// oracle for what must not change: extraction order and contents, LRU
// order by write sequence, lazy stale-entry skipping, the age-log
// compaction trigger (size > 2 * live + 16) and the canonical save_state
// bytes (sorted entries, then the age log verbatim).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ftl/write_buffer.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace esp::ftl {
namespace {

/// The original WriteBuffer, kept verbatim in behavior as a test oracle.
class ReferenceBuffer {
 public:
  explicit ReferenceBuffer(std::size_t capacity) : capacity_(capacity) {}

  bool insert(std::uint64_t sector, std::uint64_t token, bool small) {
    const std::uint64_t seq = next_seq_++;
    auto [it, fresh] = entries_.try_emplace(sector, Entry{token, seq, small});
    if (!fresh) it->second = Entry{token, seq, small};
    age_log_.emplace_back(seq, sector);
    if (age_log_.size() > 2 * entries_.size() + 16) compact_age_log();
    return !fresh;
  }

  bool lookup(std::uint64_t sector, std::uint64_t* token) const {
    const auto it = entries_.find(sector);
    if (it == entries_.end()) return false;
    if (token) *token = it->second.token;
    return true;
  }

  bool erase(std::uint64_t sector) { return entries_.erase(sector) > 0; }

  std::vector<BufferedSector> extract_run(std::uint64_t sector) {
    std::vector<BufferedSector> run;
    if (!entries_.contains(sector)) return run;
    std::uint64_t lo = sector;
    while (lo > 0 && entries_.contains(lo - 1)) --lo;
    for (std::uint64_t s = lo;; ++s) {
      const auto it = entries_.find(s);
      if (it == entries_.end()) break;
      run.push_back(BufferedSector{s, it->second.token, it->second.small});
      entries_.erase(it);
    }
    return run;
  }

  std::vector<BufferedSector> extract_oldest_run() {
    while (!age_log_.empty()) {
      const auto [seq, sector] = age_log_.front();
      const auto it = entries_.find(sector);
      if (it == entries_.end() || it->second.seq != seq) {
        age_log_.pop_front();
        continue;
      }
      return extract_run(sector);
    }
    return {};
  }

  std::vector<BufferedSector> extract_page_group(std::uint64_t sector,
                                                 std::uint32_t spp) {
    std::vector<BufferedSector> group;
    if (!entries_.contains(sector)) return group;
    const auto page_has = [this, spp](std::uint64_t lpn) {
      for (std::uint32_t s = 0; s < spp; ++s)
        if (entries_.contains(lpn * spp + s)) return true;
      return false;
    };
    std::uint64_t lo = sector / spp;
    while (lo > 0 && page_has(lo - 1)) --lo;
    std::uint64_t hi = sector / spp;
    while (page_has(hi + 1)) ++hi;
    for (std::uint64_t lpn = lo; lpn <= hi; ++lpn) {
      for (std::uint32_t s = 0; s < spp; ++s) {
        const std::uint64_t cur = lpn * spp + s;
        const auto it = entries_.find(cur);
        if (it == entries_.end()) continue;
        group.push_back(
            BufferedSector{cur, it->second.token, it->second.small});
        entries_.erase(it);
      }
    }
    return group;
  }

  std::vector<BufferedSector> extract_oldest_page_group(std::uint32_t spp) {
    while (!age_log_.empty()) {
      const auto [seq, sector] = age_log_.front();
      const auto it = entries_.find(sector);
      if (it == entries_.end() || it->second.seq != seq) {
        age_log_.pop_front();
        continue;
      }
      return extract_page_group(sector, spp);
    }
    return {};
  }

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool over_capacity() const { return entries_.size() > capacity_; }
  bool empty() const { return entries_.empty(); }
  std::size_t age_log_size() const { return age_log_.size(); }

  /// The archive layout of the original: tag, capacity, next sequence,
  /// entries sorted by sector as raw 32-byte records (tail padding zero),
  /// then the age log as (seq, sector) pairs, stale entries included.
  void save_state(util::StateWriter& w) const {
    struct Archived {
      std::uint64_t sector;
      std::uint64_t token;
      std::uint64_t seq;
      std::uint8_t small;
      std::uint8_t pad[7];
    };
    static_assert(sizeof(Archived) == 32);
    std::vector<Archived> sorted(entries_.size());
    std::size_t n = 0;
    for (const auto& [sector, e] : entries_) {
      Archived& a = sorted[n++];
      a.sector = sector;
      a.token = e.token;
      a.seq = e.seq;
      a.small = e.small ? 1 : 0;
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const Archived& a, const Archived& b) {
                return a.sector < b.sector;
              });
    w.tag("WBUF");
    w.u64(capacity_);
    w.u64(next_seq_);
    w.pod_vec(sorted);
    w.u64(age_log_.size());
    for (const auto& [seq, sector] : age_log_) {
      w.u64(seq);
      w.u64(sector);
    }
  }

 private:
  struct Entry {
    std::uint64_t token;
    std::uint64_t seq;
    bool small;
  };
  void compact_age_log() {
    std::deque<std::pair<std::uint64_t, std::uint64_t>> live;
    for (const auto& [seq, sector] : age_log_) {
      const auto it = entries_.find(sector);
      if (it != entries_.end() && it->second.seq == seq)
        live.emplace_back(seq, sector);
    }
    age_log_.swap(live);
  }

  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> age_log_;
};

template <typename Buffer>
std::string saved(const Buffer& b) {
  std::ostringstream os;
  util::StateWriter w(os);
  b.save_state(w);
  return os.str();
}

::testing::AssertionResult same_sectors(
    const std::vector<BufferedSector>& got,
    const std::vector<BufferedSector>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].sector != want[i].sector || got[i].token != want[i].token ||
        got[i].small != want[i].small)
      return ::testing::AssertionFailure()
             << "entry " << i << ": sector " << got[i].sector << " vs "
             << want[i].sector << ", token " << got[i].token << " vs "
             << want[i].token << ", small " << got[i].small << " vs "
             << want[i].small;
  }
  return ::testing::AssertionSuccess();
}

/// Drives one seeded op sequence through both buffers and checks them
/// after every op, plus byte-equal snapshots and a load_state round trip
/// every 64 ops.
class Duel {
 public:
  Duel(std::uint64_t seed, std::size_t capacity, std::uint64_t span)
      : buf_(capacity), ref_(capacity), rng_(seed), span_(span) {}

  void run(std::size_t ops) {
    for (std::size_t op = 1; op <= ops; ++op) {
      step();
      check_observers();
      if (::testing::Test::HasFatalFailure()) return;
      if (op % 64 == 0) check_snapshot();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  std::size_t grown_past_capacity = 0;  ///< ops that left size > 2 * cap
  std::size_t compactions = 0;          ///< age-log shrinks seen on insert

 private:
  std::uint64_t pick_sector() {
    // Sector 0 and its neighbors get their own share so underflow edges
    // (lo > 0, page 0) are exercised; the rest cluster in a small span so
    // runs, page groups and hash collisions are frequent.
    if (rng_.chance(0.05)) return rng_.below(3);
    return rng_.below(span_);
  }

  std::uint32_t pick_spp() { return rng_.chance(0.5) ? 4 : 8; }

  void insert_checked(std::uint64_t s, bool small) {
    const std::uint64_t token = rng_();
    const std::size_t log_before = ref_.age_log_size();
    ASSERT_EQ(buf_.insert(s, token, small), ref_.insert(s, token, small))
        << "insert " << s;
    if (ref_.age_log_size() <= log_before) ++compactions;
  }

  void step() {
    const std::uint64_t kind = rng_.below(100);
    if (kind < 30) {
      // Host write: a short request, sometimes a large one (256..600
      // sectors) that pushes the buffer far past its capacity and forces
      // the flat table to grow.
      const bool large = rng_.chance(0.04);
      const std::uint64_t count = large ? 256 + rng_.below(345)
                                        : 1 + rng_.below(8);
      const std::uint64_t first = pick_sector();
      for (std::uint64_t i = 0; i < count; ++i)
        insert_checked(first + i, count < 4);
      if (buf_.size() > 2 * buf_.capacity()) ++grown_past_capacity;
    } else if (kind < 40) {
      // Hot-overwrite run: one sector rewritten many times drives the age
      // log past 2 * live + 16 and into compaction.
      const std::uint64_t s = pick_sector();
      const std::uint64_t n = 20 + rng_.below(200);
      for (std::uint64_t i = 0; i < n; ++i) insert_checked(s, true);
    } else if (kind < 52) {
      const std::uint64_t s = pick_sector();
      std::uint64_t a = 1, b = 2;
      const bool hit_a = buf_.lookup(s, &a);
      const bool hit_b = ref_.lookup(s, &b);
      ASSERT_EQ(hit_a, hit_b) << "lookup " << s;
      if (hit_a) {
        EXPECT_EQ(a, b) << "lookup token " << s;
      }
      EXPECT_EQ(buf_.lookup(s, nullptr), hit_b);
    } else if (kind < 60) {
      const std::uint64_t s = pick_sector();
      ASSERT_EQ(buf_.erase(s), ref_.erase(s)) << "erase " << s;
    } else if (kind < 70) {
      const std::uint64_t s = pick_sector();
      buf_.extract_run(s, out_);
      ASSERT_TRUE(same_sectors(out_, ref_.extract_run(s)))
          << "extract_run " << s;
    } else if (kind < 78) {
      buf_.extract_oldest_run(out_);
      ASSERT_TRUE(same_sectors(out_, ref_.extract_oldest_run()))
          << "extract_oldest_run";
    } else if (kind < 90) {
      const std::uint64_t s = pick_sector();
      const std::uint32_t spp = pick_spp();
      buf_.extract_page_group(s, spp, out_);
      ASSERT_TRUE(same_sectors(out_, ref_.extract_page_group(s, spp)))
          << "extract_page_group " << s << " spp " << spp;
    } else {
      // Capacity eviction as the FTLs run it.
      const std::uint32_t spp = pick_spp();
      do {
        buf_.extract_oldest_page_group(spp, out_);
        ASSERT_TRUE(same_sectors(out_, ref_.extract_oldest_page_group(spp)))
            << "extract_oldest_page_group spp " << spp;
      } while (ref_.over_capacity() && !out_.empty());
    }
  }

  void check_observers() {
    ASSERT_EQ(buf_.size(), ref_.size());
    ASSERT_EQ(buf_.age_log_size(), ref_.age_log_size());
    ASSERT_EQ(buf_.empty(), ref_.empty());
    ASSERT_EQ(buf_.over_capacity(), ref_.over_capacity());
    ASSERT_EQ(buf_.capacity(), ref_.capacity());
  }

  void check_snapshot() {
    const std::string bytes = saved(buf_);
    ASSERT_EQ(bytes, saved(ref_)) << "save_state bytes differ";
    // Round trip into a fresh buffer (its table at construction size, so
    // loading a grown buffer exercises the resize path) and continue the
    // duel on the restored copy.
    WriteBuffer restored(buf_.capacity());
    std::istringstream is(bytes);
    util::StateReader r(is);
    restored.load_state(r);
    ASSERT_EQ(saved(restored), bytes) << "load_state round trip";
    buf_ = std::move(restored);
    check_observers();
  }

  WriteBuffer buf_;
  ReferenceBuffer ref_;
  util::Xoshiro256 rng_;
  std::uint64_t span_;
  std::vector<BufferedSector> out_;
};

TEST(WriteBufferDifferential, MatchesReferenceAcrossSeeds) {
  std::size_t grown = 0;
  std::size_t compactions = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Small capacities so large requests overflow the table's sizing;
    // spans from dense (every page chains) to sparse.
    const std::size_t capacity = seed % 3 == 0 ? 8 : 64;
    const std::uint64_t span = seed % 2 == 0 ? 256 : 4096;
    Duel duel(seed, capacity, span);
    duel.run(2000);
    if (HasFatalFailure()) return;
    grown += duel.grown_past_capacity;
    compactions += duel.compactions;
  }
  // The sequences really reached the paths they exist for.
  EXPECT_GT(grown, 0u);
  EXPECT_GT(compactions, 0u);
}

TEST(WriteBufferDifferential, LoadRejectsDuplicateSectors) {
  WriteBuffer buf(8);
  buf.insert(5, 1, true);
  buf.insert(6, 2, true);
  std::string bytes = saved(buf);
  // Entries start after tag (4) + capacity (8) + next_seq (8) + count (8);
  // overwrite the second record's sector with the first's.
  const std::size_t entries = 4 + 8 + 8 + 8;
  std::copy_n(bytes.begin() + entries, 8, bytes.begin() + entries + 32);
  std::istringstream is(bytes);
  util::StateReader r(is);
  WriteBuffer restored(8);
  EXPECT_THROW(restored.load_state(r), std::runtime_error);
}

}  // namespace
}  // namespace esp::ftl
