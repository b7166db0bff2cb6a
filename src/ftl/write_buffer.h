// Host write buffer (fgmFTL and subFTL front end).
//
// Buffers dirty 4-KB sectors so that small *asynchronous* writes can be
// merged into full-page programs before reaching flash. Synchronous writes
// pass through: the FTL extracts them (plus any contiguous buffered
// neighbors -- a free merge) immediately, which is exactly why sync-heavy
// workloads defeat the FGM scheme (paper Sec. 2).
//
// The buffer only stores tokens; flush policy lives in the owning FTL.
//
// Storage is a flat open-addressing table (power-of-two slots, multiplicative
// hash, linear probing, backward-shift deletion) plus a ring-buffer age log,
// both owned by the buffer. Extraction fills a vector the caller owns, so
// once the caller's vector and the table have reached their working size,
// inserts, lookups and extractions never touch the heap. The table is sized
// for twice the capacity at construction and only grows when a single
// request pushes the buffer past that.
#pragma once

#include <cstdint>
#include <vector>

#include "util/serialize.h"

namespace esp::ftl {

struct BufferedSector {
  std::uint64_t sector = 0;
  std::uint64_t token = 0;
  bool small = false;  ///< originated from a small host request
};

class WriteBuffer {
 public:
  /// Sector number the table reserves as its empty-slot marker; insert()
  /// rejects it. Logical sector spaces never reach it.
  static constexpr std::uint64_t kReservedSector = ~std::uint64_t{0};

  explicit WriteBuffer(std::size_t capacity_sectors);

  /// Inserts or overwrites a dirty sector. Returns true when the sector was
  /// already buffered (write hit).
  bool insert(std::uint64_t sector, std::uint64_t token, bool small);

  /// Read hit: fills `token` and returns true when the sector is buffered.
  bool lookup(std::uint64_t sector, std::uint64_t* token) const;

  /// Drops a sector (TRIM). Returns true when it was present.
  bool erase(std::uint64_t sector);

  // Extraction: each call replaces the contents of `out` with the removed
  // sectors, sorted ascending, and leaves it empty when nothing matched.
  // `out` keeps its capacity, so a caller reusing one vector allocates
  // only while it grows.

  /// Removes the maximal run of buffered sectors contiguous with (and
  /// including) `sector`. Empty when `sector` is not buffered.
  void extract_run(std::uint64_t sector, std::vector<BufferedSector>& out);

  /// Removes the least-recently-written sector's contiguous run (capacity
  /// eviction). Empty when the buffer is empty.
  void extract_oldest_run(std::vector<BufferedSector>& out);

  /// Page-granular merge unit: removes every buffered sector belonging to
  /// the maximal chain of consecutive logical pages (of `sectors_per_page`
  /// sectors) that each hold at least one buffered sector, containing
  /// `sector`'s page. This is the "merge small writes with consecutive
  /// logical block addresses" unit of the paper's buffered FTLs: sectors of
  /// the same page always flush into the same physical page.
  void extract_page_group(std::uint64_t sector, std::uint32_t sectors_per_page,
                          std::vector<BufferedSector>& out);

  /// Removes the least-recently-written sector's page group.
  void extract_oldest_page_group(std::uint32_t sectors_per_page,
                                 std::vector<BufferedSector>& out);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool over_capacity() const { return size_ > capacity_; }
  bool empty() const { return size_ == 0; }

  /// Length of the insertion log, stale entries included (bounded-memory
  /// regression tests).
  std::size_t age_log_size() const { return log_size_; }

  /// Snapshot support. Entries are archived in sorted-sector order (the
  /// table is only ever probed by key, so slot order is not behavior;
  /// sorting makes the archive canonical). The age log is saved verbatim,
  /// stale entries included, so LRU eviction order is exact.
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  struct Value {
    std::uint64_t token;
    std::uint64_t seq;
    bool small;
  };
  struct LogEntry {
    std::uint64_t seq;
    std::uint64_t sector;
  };
  static constexpr std::size_t kNotFound = ~std::size_t{0};

  std::size_t home(std::uint64_t sector) const;
  /// Slot holding `sector`, or the empty slot that ends its probe sequence.
  std::size_t probe(std::uint64_t sector) const;
  /// Slot holding `sector`, or kNotFound.
  std::size_t find(std::uint64_t sector) const;
  bool contains(std::uint64_t sector) const {
    return find(sector) != kNotFound;
  }
  /// Empties slot `i` by backward-shift deletion (no tombstones).
  void remove_slot(std::size_t i);
  /// Moves slot `i`'s entry to `out` and removes it.
  void take_slot(std::size_t i, std::vector<BufferedSector>& out);
  /// Rehashes into a table of `slots` slots (a power of two).
  void rehash(std::size_t slots);
  /// True when the age-log entry still describes a buffered write.
  bool is_live(const LogEntry& e) const;
  const LogEntry& log_at(std::size_t i) const {
    return log_[(log_head_ + i) & (log_.size() - 1)];
  }
  void log_push(const LogEntry& e);
  /// Pops stale entries off the age log; returns the oldest live sector,
  /// or kReservedSector when the buffer is empty.
  std::uint64_t oldest_live_sector();
  /// Drops stale age-log entries (overwritten or extracted sectors). Called
  /// when stale entries dominate so the log stays O(live entries) even
  /// under overwrite-only workloads that never trigger the lazy pruning at
  /// extraction.
  void compact_age_log();

  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
  /// Open-addressing table: keys_[i] == kReservedSector marks an empty
  /// slot; vals_[i] is meaningful only for occupied slots.
  std::vector<std::uint64_t> keys_;
  std::vector<Value> vals_;
  unsigned shift_ = 0;  ///< 64 - log2(slots) for the multiplicative hash
  /// Insertion log for LRU eviction, as a ring of power-of-two size;
  /// stale entries are skipped lazily.
  std::vector<LogEntry> log_;
  std::size_t log_head_ = 0;
  std::size_t log_size_ = 0;
};

}  // namespace esp::ftl
