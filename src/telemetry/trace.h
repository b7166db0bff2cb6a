// Fixed-capacity ring of per-operation trace events.
//
// Every host request the driver issues gets a span; every flash command
// and FTL mechanism op executed on its behalf gets a child span tagged
// with the request id. The ring holds the most recent `capacity` events
// (wraparound evicts the oldest; `dropped()` reports how many), so memory
// stays bounded on arbitrarily long runs.
//
// Two dump formats:
//   * dump_jsonl    -- pure JSONL, one self-contained JSON object/line;
//   * dump_chrome   -- Chrome trace_event JSON (an array of "ph":"X"
//     complete events, one per line) loadable directly in chrome://tracing
//     or https://ui.perfetto.dev. Lanes (tid) group events by layer:
//     host requests, FTL mechanisms, NAND commands.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "telemetry/sink.h"
#include "util/serialize.h"

namespace esp::telemetry {

struct TraceEvent {
  OpKind kind = OpKind::kCount;
  std::uint8_t pad[3] = {};  ///< explicit, so the raw archive is all zero
  std::uint32_t request_id = 0;  ///< owning host request (0 = none)
  SimTime start_us = 0.0;
  SimTime dur_us = 0.0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};
static_assert(sizeof(TraceEvent) == 40, "snapshot v1 TRNG layout");

/// Trace lane of an op kind: 0 = host, 1 = ftl, 2 = nand.
constexpr std::uint32_t op_lane(OpKind kind) {
  switch (kind) {
    case OpKind::kHostWrite:
    case OpKind::kHostRead:
    case OpKind::kHostFlush:
    case OpKind::kHostTrim:
      return 0;
    case OpKind::kGcCopy:
    case OpKind::kRmw:
    case OpKind::kForwardMigration:
    case OpKind::kRetentionEvict:
    case OpKind::kWearLevel:
      return 1;
    default:
      return 2;
  }
}

class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = 1 << 16);

  void push(const TraceEvent& event);

  std::size_t capacity() const { return ring_.size(); }
  /// Events currently held (<= capacity).
  std::size_t size() const;
  /// Total events ever pushed.
  std::uint64_t pushed() const { return pushed_; }
  /// Events evicted by wraparound.
  std::uint64_t dropped() const;

  /// i-th retained event, oldest first (0 <= i < size()).
  const TraceEvent& at(std::size_t i) const;

  void clear();

  /// Pure JSONL: one JSON object per line.
  void dump_jsonl(std::ostream& os) const;
  /// Chrome trace_event format (JSON array of complete events).
  void dump_chrome(std::ostream& os) const;

  /// Snapshot support: ring contents + push cursor, so a restored ring
  /// dumps exactly what the saved one would have. Capacity must match.
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  std::vector<TraceEvent> ring_;
  std::uint64_t pushed_ = 0;
};

}  // namespace esp::telemetry
