// One lifecycle owner for a run's downstream observers (causal journal,
// online auditor, health stream, latency-forensics collector), driven by
// one fixed-order table row per observer: its sidecar-path field, META
// offset slot and snapshot section. The set creates the lean facade,
// opens (or resumes) each sidecar under a shared telemetry::StreamHeader,
// attaches and detaches the observers, records checkpoint offsets and
// snapshot participants, folds finish() into RunResult, and renames and
// concatenates shard sidecars. The per-op hot path stays the facade's
// named setters and the observers' on_op bodies. docs/OBSERVABILITY.md
// ("Adding a stream") has the contract.
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/snapshot.h"
#include "telemetry/auditor.h"
#include "telemetry/forensics.h"
#include "telemetry/health.h"
#include "telemetry/journal.h"
#include "telemetry/telemetry.h"

namespace esp::core {

class ObserverSet {
 public:
  /// One observer's fixed lifecycle facts. A null `path` marks the
  /// auditor: no sidecar, switched on by ExperimentSpec::audit, restored
  /// from every snapshot (it mirrors device state, not a stream position).
  struct Row {
    const char* name;                   ///< stream name, as errors print it
    std::string ExperimentSpec::*path;  ///< sidecar path field
    int offset_slot;          ///< SnapshotMeta::sidecar_offset slot, or -1
    SnapshotSection section;
  };
  static constexpr std::size_t kStreams = 4;
  static const std::array<Row, kStreams> kRows;

  /// Opens every observer `spec` asks for; a sidecar the snapshot META
  /// `resume` carries resumes at its saved offset (null: fresh streams).
  /// Throws std::runtime_error naming stream and path on an open failure.
  explicit ObserverSet(const ExperimentSpec& spec,
                       const SnapshotMeta* resume = nullptr);
  /// Detaches every observer from the facade.
  ~ObserverSet();
  ObserverSet(const ObserverSet&) = delete;
  ObserverSet& operator=(const ObserverSet&) = delete;

  /// The facade the observers hang off: the spec's, else a private lean
  /// one when any observer is on, else null.
  telemetry::Telemetry* telemetry() const { return tel_; }

  /// The private facade: a tiny trace ring and no per-op histograms, which
  /// nothing reads on a facade that only feeds streaming observers.
  static telemetry::TelemetryConfig lean_config();

  /// Flushes every sidecar and records its byte offset in `meta`.
  void checkpoint(SnapshotMeta& meta);

  /// Snapshot participants. Saving: the facade and every observer.
  /// Restoring: the facade and the sidecar observers only when their
  /// stream resumes; the auditor always.
  SnapshotParts snapshot_parts(bool restoring) const;

  /// Writes every trailer and folds the counters into `result`.
  void finish(RunResult& result);

  /// Rewrites every sidecar path `spec` sets (shard leaves, sweep cells).
  static void rename_sidecars(
      ExperimentSpec& spec,
      const std::function<std::string(const std::string&)>& rename);
  /// Concatenates the leaves' sidecars into `spec`'s paths in shard order.
  /// The leaf files stay: the invariance gates byte-compare them.
  static void concat_shards(const ExperimentSpec& spec,
                            const std::vector<ExperimentSpec>& leaves);

 private:
  void create(std::size_t row, const ExperimentSpec& spec);
  /// Sets every observer on the facade (`on`) or clears them all.
  void attach(bool on);

  std::array<std::ofstream, kStreams> sidecars_;
  std::array<SnapshotPart, kStreams> parts_;
  std::array<bool, kStreams> resumed_{};
  telemetry::Telemetry* tel_ = nullptr;
  bool resume_stream_ = false;
  // Destroyed bottom-up: the observers before the facade whose registry
  // the forensics histograms bind into, all before their sidecars. The
  // facade and its observers sit together: every op touches them.
  std::optional<telemetry::Telemetry> owned_tel_;
  std::optional<telemetry::Journal> journal_;
  std::optional<telemetry::Auditor> auditor_;
  std::optional<telemetry::HealthMonitor> health_;
  std::optional<telemetry::ForensicsCollector> forensics_;
};

}  // namespace esp::core
