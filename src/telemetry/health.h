// Device-health observability: periodic per-block snapshots plus a
// SMART-style device attribute line, streamed as schema-versioned JSONL.
//
// The HealthMonitor is fed from two sides:
//
//   * an event feed (Telemetry facade, set_health): every op event flows
//     through on_op(), from which the monitor maintains per-block GC-victim
//     counts and windowed per-cause program/erase counters -- the same
//     cause taxonomy the causal-attribution journal uses, so the smart
//     line's WAF decomposition is consistent with espreport's;
//   * an epoch snapshot (driver): on each sim-time epoch boundary the
//     driver fills the monitor's row buffer from the NAND device
//     (P/E cycles, programmed pages, first-program time) and the FTL
//     (pool ownership, ESP level, valid counts), then commits the epoch.
//
// Stream layout (one JSON object per line, all lines carry `"t"`):
//   hdr    schema version, kind:"health", FTL, geometry, seed,
//          epoch interval, rated P/E endurance
//   epoch  epoch boundary marker: index + simulated time
//   b      one changed block row (DELTA-ENCODED: a block is re-emitted
//          only when its tuple changed since its last emission; blocks
//          never emitted are in their pristine default state)
//   smart  device-level attribute table for the epoch: media wear %,
//          spare blocks, wear min/max/mean/stddev/CoV/Gini, windowed
//          per-cause WAF decomposition, retention-expiry rate, projected
//          P/E-exhaustion horizon
//   end    trailer: epoch and line counts
//
// Timestamps print with "%.10g" (same round-trip contract as the
// journal). Epoch 0 is snapshotted at attach time, so the stream carries
// the absolute post-precondition baseline every later delta builds on.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "telemetry/causes.h"
#include "telemetry/sink.h"
#include "telemetry/stream_header.h"
#include "util/serialize.h"

namespace esp::telemetry {

/// Pool ownership of a block in a health row.
enum class HealthPool : std::uint8_t {
  kFree = 0,  ///< not owned by any pool (allocator free list)
  kFull,      ///< full-page pool ("full")
  kSub,       ///< ESP subpage pool ("sub")
  kFine,      ///< fine-grained sector pool ("fine")
};

constexpr const char* health_pool_name(HealthPool pool) {
  switch (pool) {
    case HealthPool::kFree: return "free";
    case HealthPool::kFull: return "full";
    case HealthPool::kSub: return "sub";
    case HealthPool::kFine: return "fine";
  }
  return "unknown";
}

/// One block's health tuple. The device fills the physical fields, the
/// owning FTL pool fills ownership/validity, the monitor itself fills
/// gc_victims from its event feed. Delta encoding compares whole tuples.
struct BlockHealth {
  std::uint32_t pe = 0;               ///< P/E cycles
  std::uint32_t programmed_pages = 0; ///< pages with >=1 program this cycle
  std::uint32_t valid = 0;            ///< valid sectors/pages (pool units)
  std::uint32_t valid_cap = 0;        ///< capacity in the same units
  std::uint32_t gc_victims = 0;       ///< times erased under a GC cause
  std::uint32_t pad0 = 0;             ///< explicit zero padding (archived raw)
  SimTime first_program_us = -1.0;    ///< first program since erase (<0: none)
  std::uint8_t pool = 0;              ///< HealthPool
  std::uint8_t level = 0;             ///< ESP level (subpage pool, else 0)
  std::uint8_t pad1[6] = {};          ///< explicit zero padding (archived raw)

  bool operator==(const BlockHealth&) const = default;
};
static_assert(sizeof(BlockHealth) == 40, "snapshot v1 row layout");

/// Run-identifying fields written into the health stream's hdr line.
struct HealthHeader : StreamHeader {
  /// Epoch period in simulated microseconds; 0 = endpoint epochs only
  /// (attach + end of each run).
  SimTime interval_us = 0.0;
  /// Rated P/E endurance used for media-wear % and the exhaustion horizon.
  std::uint32_t rated_pe = 3000;
};

class HealthMonitor {
 public:
  static constexpr int kSchemaVersion = 1;

  /// Writes the hdr line immediately. The stream must outlive the monitor.
  /// With `resume` set, no hdr line is written (appending to an existing
  /// stream after a snapshot restore; cursors arrive via load_state).
  HealthMonitor(std::ostream& os, const HealthHeader& header,
                bool resume = false);

  // --- event feed (Telemetry facade) --------------------------------
  /// Folds one op event into the per-block and windowed counters.
  /// Defined inline: this runs once per flash op for the lifetime of an
  /// always-on stream, and every branch is a bare counter increment.
  void on_op(const OpEvent& event, Cause cause) {
    const auto c = static_cast<std::size_t>(cause);
    switch (event.kind) {
      case OpKind::kProgFull:
        if (c < kCauseCount) ++win_cause_prog_full_[c];
        return;
      case OpKind::kProgSub:
        if (c < kCauseCount) ++win_cause_prog_sub_[c];
        return;
      case OpKind::kErase: {
        if (c < kCauseCount) ++win_cause_erases_[c];
        // Per-block GC-victim accounting: an erase attributed to a GC pass
        // means this block was selected as a victim.
        if (cause == Cause::kGcCopy && event.chip != kNoChip) {
          const std::size_t idx =
              static_cast<std::size_t>(event.chip) * header_.blocks_per_chip +
              event.block;
          if (idx < gc_victims_.size()) ++gc_victims_[idx];
        }
        return;
      }
      case OpKind::kHostWrite:
        // arg0 = sector count (driver's end_request schema).
        win_host_sectors_ += event.arg0;
        return;
      case OpKind::kRetentionEvict:
        // arg0 = sectors evicted by the retention scan.
        win_retention_evict_sectors_ += event.arg0;
        return;
      default:
        return;
    }
  }

  // --- epoch cadence (driver) ---------------------------------------
  /// Anchors the epoch clock at `now` (called once at attach).
  void start(SimTime now);
  /// True when the current epoch has elapsed (always false when the
  /// interval is 0 -- endpoint epochs are triggered explicitly).
  bool due(SimTime now) const {
    return header_.interval_us > 0.0 && now >= next_due_us_;
  }
  SimTime last_epoch_us() const { return last_epoch_us_; }

  // --- epoch snapshot (driver) --------------------------------------
  /// Returns the cleared row buffer (one row per physical block, indexed
  /// chip * blocks_per_chip + block) for the device and FTL to fill.
  std::span<BlockHealth> begin_epoch();
  /// Emits the epoch: marker line, changed-block delta rows, smart line.
  /// `spare_blocks` is the allocator's current free-block count.
  void commit_epoch(SimTime now, std::uint64_t spare_blocks);

  /// Writes the end trailer (idempotent; later epochs are dropped).
  void finish();

  std::uint64_t epochs_written() const { return epochs_; }
  std::uint64_t lines_written() const { return lines_; }

  /// Snapshot support: epoch cadence cursors, line counters, the
  /// delta-encoding reference tuples, per-block GC-victim counts and the
  /// open window's per-cause counters.
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  void write_line(const char* buf);
  void emit_smart(SimTime now, std::uint64_t spare_blocks,
                  std::uint32_t pe_min, std::uint32_t pe_max, double sum);

  /// Appends one delta row for block `i` to out_buf_ (to_chars fast path:
  /// a prod-geometry epoch can carry thousands of rows, and snprintf's
  /// format-string parse would dominate the monitor's cost).
  void append_block_row(std::size_t i, const BlockHealth& r);

  std::ostream& os_;
  HealthHeader header_;
  std::size_t total_blocks_;
  bool finished_ = false;
  SimTime next_due_us_ = 0.0;
  SimTime last_epoch_us_ = 0.0;
  std::uint64_t epochs_ = 0;
  std::uint64_t lines_ = 0;

  /// Snapshot double-buffer: rows_ is filled per epoch, emitted_ holds the
  /// last-emitted tuple per block (delta-encoding reference).
  std::vector<BlockHealth> rows_;
  std::vector<BlockHealth> emitted_;
  std::vector<std::uint32_t> gc_victims_;  ///< erases under a GC cause
  std::vector<std::uint32_t> pe_scratch_;  ///< dense P/E copy of rows_
  std::vector<std::uint64_t> counts_;      ///< Gini counting-sort buckets
  std::string out_buf_;  ///< per-epoch line accumulator, one write per epoch

  // Windowed event-feed counters, reset at each commit.
  std::uint64_t win_cause_prog_full_[kCauseCount] = {};
  std::uint64_t win_cause_prog_sub_[kCauseCount] = {};
  std::uint64_t win_cause_erases_[kCauseCount] = {};
  std::uint64_t win_host_sectors_ = 0;
  std::uint64_t win_retention_evict_sectors_ = 0;
};

}  // namespace esp::telemetry
