// Whole-simulator snapshot/restore: the versioned on-disk format that
// composes every layer's save_state/load_state (util/serialize.h) into one
// deterministic checkpoint, and the device-lifetime fast-forward built on
// top of it (docs/LIFETIME.md).
//
// A snapshot captures the complete simulation state -- NAND block/page/
// wear/retention state, FTL mapping + pool + buffer + RNG state, driver
// clocks and shadow maps, and (optionally) the telemetry facade plus every
// attached streaming sink -- such that a run restored from the snapshot
// continues BIT-IDENTICALLY to the uninterrupted run: same request
// sequence, same flash ops, same journal/health/forensics bytes.
//
// File layout (little-endian, see docs/LIFETIME.md for the contract):
//
//   magic "ESPSNAP1" | u32 format version | u64 config fingerprint
//   META  seed, request cursors, sidecar byte offsets, section flags
//   SSD0  device -> ftl -> driver (always present)
//   then, per optional section flagged in META, in this order:
//   u64 length | TELM / JRNL / AUDT / HLTH / FRNS section body
//
// Optional sections carry a byte-length prefix so a reader without the
// matching consumer (e.g. restoring without an auditor) can skip them.
//
// Sidecar resume: streaming sinks (journal/health/forensics) write JSONL
// to plain files the snapshot cannot contain. META instead records each
// sidecar's byte offset at checkpoint time; restore truncates the sidecar
// to that offset and reopens it in append mode with the sink in resume
// mode (header suppressed), so the final file is byte-identical to an
// uninterrupted run's.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "core/ssd.h"

namespace esp::util {
class StateReader;
class StateWriter;
}  // namespace esp::util

namespace esp::core {

/// First 8 bytes of every snapshot file.
inline constexpr char kSnapshotMagic[8] = {'E', 'S', 'P', 'S',
                                           'N', 'A', 'P', '1'};

/// Bumped on any incompatible change to the archive layout (including any
/// layer's save_state). Loads of a different version fail loudly.
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

/// FNV-1a over a canonical field-by-field serialization of the SsdConfig.
/// Two configs with equal fingerprints build byte-identical simulators, so
/// a snapshot only restores into the exact configuration that produced it.
std::uint64_t config_fingerprint(const SsdConfig& config);

/// The optional sections of the v1 format (TELM, JRNL, AUDT, HLTH, FRNS)
/// in file order; META carries one presence flag per section, in order.
enum SnapshotSection : std::size_t {
  kSectionTelemetry, kSectionJournal, kSectionAuditor, kSectionHealth,
  kSectionForensics, kSnapshotSections
};

/// Sidecar offset slots in META, in order: journal, health, forensics.
inline constexpr std::size_t kSnapshotSidecars = 3;

/// Everything the META section carries besides the config fingerprint.
struct SnapshotMeta {
  /// Offset value meaning "this sidecar was not attached at save time".
  static constexpr std::uint64_t kNoSidecar = ~0ull;

  std::uint64_t workload_seed = 0;    ///< seed of the saved run's stream
  /// Requests consumed from the request source before the checkpoint
  /// (warmup + measured). Restore replays and discards exactly this many
  /// generator calls when resuming the same stream.
  std::uint64_t source_consumed = 0;
  /// Measured (post-warmup) requests completed before the checkpoint.
  std::uint64_t measured_done = 0;
  double saved_at_us = 0.0;  ///< simulated clock at checkpoint

  /// Sidecar bytes written at checkpoint time, per offset slot.
  std::array<std::uint64_t, kSnapshotSidecars> sidecar_offset = {
      kNoSidecar, kNoSidecar, kNoSidecar};
  /// Section presence flags, per SnapshotSection (filled by write_snapshot
  /// from the parts it is handed; read back by read_snapshot_meta).
  std::array<bool, kSnapshotSections> has{};
};

/// One optional snapshot participant. An empty part is not saved (its
/// section is omitted) and not restored (its section is skipped via the
/// length prefix).
struct SnapshotPart {
  std::function<void(util::StateWriter&)> save;
  std::function<void(util::StateReader&)> load;
};
using SnapshotParts = std::array<SnapshotPart, kSnapshotSections>;

/// The part of any object with save_state/load_state; empty for null.
template <typename T>
SnapshotPart snapshot_part(T* obj) {
  if (obj == nullptr) return {};
  return {[obj](util::StateWriter& w) { obj->save_state(w); },
          [obj](util::StateReader& r) { obj->load_state(r); }};
}

/// Writes a complete snapshot of `ssd` (+ the non-empty parts) to `os`.
/// `meta`'s presence flags are overwritten from `parts`; fill the cursors
/// and sidecar offsets before calling. Must be called between host requests
/// with no open cause scope (the telemetry facade enforces this).
void write_snapshot(std::ostream& os, const SnapshotMeta& meta,
                    const Ssd& ssd, const SnapshotParts& parts);

/// Validates magic/version/fingerprint against `config` and returns the
/// META section, leaving `is` positioned at the SSD0 section for
/// read_snapshot_state. Callers truncate sidecars to the returned offsets
/// BEFORE constructing resume-mode sinks. Throws std::runtime_error on a
/// foreign file, version drift or a config fingerprint mismatch.
SnapshotMeta read_snapshot_meta(std::istream& is, const SsdConfig& config);

/// Restores `ssd` and the non-empty parts from the stream positioned by
/// read_snapshot_meta. Restore order contract: the observers are
/// constructed in resume mode and set on the facade before this call; the
/// Ssd attaches the facade afterwards (attach_telemetry(tel, true)).
/// Sections present in the file but without a loader here are skipped; a
/// part whose section is absent is left freshly constructed.
void read_snapshot_state(std::istream& is, const SnapshotMeta& meta, Ssd& ssd,
                         const SnapshotParts& parts);

/// Convenience wrappers over whole files. save_snapshot_file overwrites;
/// both throw std::runtime_error on I/O failure.
void save_snapshot_file(const std::string& path, const SnapshotMeta& meta,
                        const Ssd& ssd, const SnapshotParts& parts);

}  // namespace esp::core
