// Outside-in probes for the repository benchmark.
//
// Everything here wraps a public interface of the simulator and forwards
// every call unchanged, so a decorated run makes exactly the simulated
// decisions of an undecorated one (the benchmark gates that with a digest
// compare). The probes only read the host clock around the forwarded calls:
//
//   * ChunkClock   -- RequestSource decorator for the UNTRACED run: one
//                     pair of clock reads per fixed-size request chunk, plus
//                     optional start/middle/end hooks and an optional
//                     SpeedProbe pass between chunks;
//   * SpeedProbe   -- fixed host work whose time tracks the host's speed;
//   * TimedSource  -- RequestSource decorator for the traced run: times
//                     every next() and opens one span per request;
//   * TimedFtl     -- ftl::Ftl decorator handed to sim::Driver;
//   * TimedSink    -- forwarding telemetry::Sink in front of the facade;
//   * SpanRecorder -- bounded in-memory span store, written out at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "ftl/ftl.h"
#include "telemetry/telemetry.h"
#include "workload/request.h"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- chunk clock (untraced run) ------------------------------------------

/// One fixed-size slice of the measured window. Its time is CPU time of
/// the thread that ran it: a chunk is one thread's work, and CPU time
/// leaves out the time the thread spent descheduled (preempted, or
/// stolen by the hypervisor), which sets the tail of wall times when the
/// workload's threads fill the host's vCPUs.
struct Chunk {
  std::uint64_t requests = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t probe_ns = 0;  ///< the SpeedProbe pass run just before it
};

/// Host-speed probe. One pass is a fixed amount of the kind of work the
/// simulator does: hashing and data-dependent branches over a small table,
/// then chains of dependent loads over the first 1 MiB (L2-sized) of a
/// shared read-only 32 MiB table and over all of it. On a shared host its
/// time follows the current speed of the core, its caches and the memory
/// system, which change with the load of other tenants; the benchmark
/// scales host times by it (see README.md, "Host-speed probe").
class SpeedProbe {
 public:
  /// About the pass time on the reference host (33-55 us, by workload):
  /// the speed probe-scaled times are reported at.
  static constexpr double kReferenceNs = 40000.0;

  SpeedProbe();
  /// Runs one pass; returns its wall ns.
  std::uint64_t pass_ns();

 private:
  std::vector<std::uint64_t> small_;
  const std::vector<std::uint64_t>& large_;
  std::uint64_t small_at_ = 0;
  std::uint64_t l2_at_ = 0;
  std::uint64_t large_at_ = 0;
  std::uint64_t acc_ = 0;
};

/// Stamps the host and thread CPU clocks every `chunk` requests of the
/// measured window (the requests after the first `skip` pulls, i.e. after
/// warmup). The stamp at pull `skip` is the first measured request; the
/// stamp at stream exhaustion closes the last chunk. `on_phase(0|1|2)`
/// runs at the window start, after `mid` measured requests and at the end
/// -- the requests before each call have been fully submitted by then.
class ChunkClock final : public esp::workload::RequestSource {
 public:
  /// With `probe`, a SpeedProbe pass runs before every chunk, between
  /// its clock reads, so chunk times leave the probe out.
  ChunkClock(esp::workload::RequestSource& inner, std::uint64_t skip,
             std::uint64_t chunk, std::uint64_t mid = 0,
             std::function<void(int)> on_phase = {}, bool probe = false);

  std::optional<esp::workload::Request> next() override;

  const std::vector<Chunk>& chunks() const { return chunks_; }
  std::uint64_t window_start_ns() const { return start_ns_; }
  std::uint64_t window_end_ns() const { return last_ns_; }
  std::uint64_t measured() const {
    return pulled_ > skip_ ? pulled_ - skip_ : 0;
  }
  /// Wall ns of every probe pass, inside the window but outside chunks.
  std::uint64_t probe_ns() const { return probe_total_ns_; }

 private:
  void stamp(bool probe);

  esp::workload::RequestSource& inner_;
  std::optional<SpeedProbe> probe_;
  std::uint64_t last_probe_ns_ = 0;
  std::uint64_t probe_total_ns_ = 0;
  std::uint64_t skip_;
  std::uint64_t chunk_;
  std::uint64_t mid_;
  std::function<void(int)> on_phase_;
  std::uint64_t pulled_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t last_ns_ = 0;
  double last_cpu_s_ = 0.0;
  std::uint64_t open_requests_ = 0;
  bool ended_ = false;
  std::vector<Chunk> chunks_;
};

/// Percentiles of CPU ns per request over full-size chunks (a trailing
/// partial chunk is left out). Nearest-rank: p-th value of the sorted
/// per-chunk rates; `beyond_p99` counts chunks ranked after the p99 one.
struct ChunkStats {
  std::uint64_t chunks = 0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  std::uint64_t beyond_p99 = 0;
};
ChunkStats chunk_stats(std::span<const Chunk> chunks,
                       std::uint64_t chunk_requests);

/// `chunks` of one thread with each time scaled by
/// SpeedProbe::kReferenceNs / the median of the probe passes of the five
/// chunks around it, so a burst of host slowness that the probe sees too
/// leaves the chunk percentiles alone. Chunks without a probe pass are
/// returned unscaled.
std::vector<Chunk> probe_scaled(std::span<const Chunk> chunks);

// ---- spans (traced run) ---------------------------------------------------

inline constexpr std::uint32_t kNoSpan = 0xFFFFFFFFu;

struct Span {
  const char* name = "";
  std::uint64_t request = 0;
  std::uint32_t parent = kNoSpan;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Bounded span store. Spans are kept for every `stride`-th request only,
/// so a fixed capacity covers the whole window evenly; past capacity they
/// are counted as dropped. Not thread-safe: one recorder per simulation.
class SpanRecorder {
 public:
  SpanRecorder(std::size_t capacity, std::uint64_t stride);

  /// Starts request `id` (closing the previous request span).
  void begin_request(std::uint64_t id, std::uint64_t at_ns);
  /// Closes the open request span, if any.
  void end_request(std::uint64_t at_ns);

  /// Opens a child of the innermost open span; returns kNoSpan when the
  /// current request is not sampled or the store is full.
  std::uint32_t open(const char* name, std::uint64_t at_ns);
  void close(std::uint32_t span, std::uint64_t at_ns);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }
  /// One JSON object per line: id, name, req, parent (-1 = none), start,
  /// end (ns since `epoch_ns`, a steady-clock stamp at or before them).
  void write_jsonl(std::ostream& os, std::uint64_t epoch_ns) const;

 private:
  std::size_t capacity_;
  std::uint64_t stride_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint64_t request_ = 0;
  bool sampled_ = false;
  std::uint64_t dropped_ = 0;
};

/// Call-count and time accumulator of one probed entry point.
struct Timer {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

/// Request source decorator: times next() and opens the request span.
/// Request ids count pulls, so the FTL calls that follow a pull belong to
/// that request (the driver submits each request before pulling the next).
class TimedSource final : public esp::workload::RequestSource {
 public:
  TimedSource(esp::workload::RequestSource& inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  std::optional<esp::workload::Request> next() override;

  const Timer& gen() const { return gen_; }
  std::uint64_t window_start_ns() const { return start_ns_; }
  std::uint64_t window_end_ns() const { return end_ns_; }

 private:
  esp::workload::RequestSource& inner_;
  SpanRecorder* spans_;
  Timer gen_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t end_ns_ = 0;
};

/// ftl::Ftl decorator handed to sim::Driver: forwards every virtual and
/// times the host-path entry points.
class TimedFtl final : public esp::ftl::Ftl {
 public:
  TimedFtl(esp::ftl::Ftl& inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  esp::ftl::IoResult write(std::uint64_t sector, std::uint32_t count,
                           bool sync, esp::SimTime now) override;
  esp::ftl::IoResult read(std::uint64_t sector, std::uint32_t count,
                          esp::SimTime now,
                          std::vector<std::uint64_t>* tokens) override;
  esp::ftl::IoResult flush(esp::SimTime now) override;
  void trim(std::uint64_t sector, std::uint32_t count) override;
  esp::SimTime tick(esp::SimTime now) override;
  std::uint64_t logical_sectors() const override {
    return inner_.logical_sectors();
  }
  const esp::ftl::FtlStats& stats() const override { return inner_.stats(); }
  std::uint64_t mapping_memory_bytes() const override {
    return inner_.mapping_memory_bytes();
  }
  std::string name() const override { return inner_.name(); }
  void set_telemetry(esp::telemetry::Sink* sink) override {
    inner_.set_telemetry(sink);
  }
  void collect_health(
      std::span<esp::telemetry::BlockHealth> out) const override;
  std::uint64_t free_blocks() const override { return inner_.free_blocks(); }
  void save_state(esp::util::StateWriter& w) const override {
    inner_.save_state(w);
  }
  void load_state(esp::util::StateReader& r) override { inner_.load_state(r); }

  Timer write_t, read_t, flush_t, trim_t, tick_t;
  mutable Timer health_t;  ///< collect_health, called by health epochs

  /// Host time inside every forwarded entry point.
  std::uint64_t total_ns() const {
    return write_t.ns + read_t.ns + flush_t.ns + trim_t.ns + tick_t.ns +
           health_t.ns;
  }

 private:
  esp::ftl::Ftl& inner_;
  SpanRecorder* spans_;
};

/// Forwarding telemetry::Sink placed between the device/FTL and the
/// facade. Mirrors the facade's op filter so instrumented layers skip
/// exactly the events the facade would skip.
class TimedSink final : public esp::telemetry::Sink {
 public:
  TimedSink(esp::telemetry::Telemetry& inner, SpanRecorder* spans);

  void record_op(const esp::telemetry::OpEvent& event) override;
  esp::telemetry::MetricsRegistry& registry() override {
    return inner_.registry();
  }
  void push_cause(esp::telemetry::Cause cause, std::uint64_t detail,
                  esp::SimTime at) override;
  void pop_cause() override;
  void record_block(const esp::telemetry::BlockLifecycleEvent& event) override;

  Timer ops, causes, blocks;
  std::uint64_t total_ns() const { return ops.ns + causes.ns + blocks.ns; }

 private:
  esp::telemetry::Telemetry& inner_;
  SpanRecorder* spans_;
};

}  // namespace perfbench
