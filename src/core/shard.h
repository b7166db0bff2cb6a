// Shared-nothing intra-cell sharding: one experiment cell split into N
// independent sub-simulations so a single prod-scale replay saturates
// every core.
//
// A shard owns a CHANNEL GROUP of the device -- its own NandDevice slice
// (geometry.channels / N channels, same chips/channel, blocks and pages),
// its own FTL instance and its own Driver -- plus a page-striped slice of
// the LBA space (workload/splitter.h). Shards share NO mutable state, so
// they run as tasks on the existing work-stealing pool (run_tasks) and
// the whole cell uses the machine.
//
// Determinism contract (docs/PERFORMANCE.md "Intra-cell sharding"):
//   * LBA -> shard routing depends only on (shards, shard_stripe_pages) --
//     never on thread schedule;
//   * per-shard seeds derive from the cell's seed + shard index
//     (stable_cell_seed over "shard/<i>"), stamped into each shard's
//     journal/health headers;
//   * the join merges everything in fixed shard-index order on the joining
//     thread -- FtlStats sums, histogram merges, metrics-registry
//     reconciliation, journal/health sidecar concatenation -- so merged
//     results are bit-identical for every --jobs value;
//   * a shard's simulation depends only on its own spec + stream, so its
//     journal is byte-identical whether it ran alone or alongside
//     siblings (the shard-invariance gate re-runs one shard standalone
//     through make_shard_spec and byte-compares).
//
// What sharding changes: shards cannot interact, so cross-shard GC/wear
// coupling present in the unsharded device (a GC-busy channel group
// stalling traffic that the unsharded FTL would have absorbed elsewhere,
// device-wide wear-leveling candidate choice) is simulated per group.
// Sharded results are a different -- reproducible -- point in model space,
// compared against the unsharded baseline by the macro-replay bench.
#pragma once

#include <cstdint>
#include <string>

#include "core/experiment.h"

namespace esp::core {

/// Resolved routing parameters of a sharded cell.
struct ShardPlan {
  std::uint32_t shards = 1;
  std::uint32_t stripe_pages = 0;
  std::uint64_t stripe_sectors = 0;   ///< stripe_pages * subpages_per_page
  std::uint64_t shard_sectors = 0;    ///< per-shard addressed LBA sectors
  std::uint64_t usable_sectors = 0;   ///< global addressed LBA sectors
};

/// Validates a sharded spec (shards >= 2, channels divisible by shards,
/// single-tenant, no stream override) and resolves the routing plan.
/// Throws std::invalid_argument on violation.
ShardPlan make_shard_plan(const ExperimentSpec& spec);

/// Device slice + scaled per-shard knobs: channels / shards, and the
/// aggregate-preserving division of queue depth, write buffer, GC reserve
/// and the (host-write-counted) wear-leveling check interval.
SsdConfig shard_ssd_config(const SsdConfig& full, std::uint32_t shards);

/// Deterministic per-shard seed: derives from the cell's workload seed
/// (itself derived from the cell key by the parallel runner) + the shard
/// index. Stamped into the shard's journal/health headers.
std::uint64_t shard_seed(const ExperimentSpec& spec, std::uint32_t index);

/// Sidecar path of shard `index`'s journal/health stream: ".shard<i>" is
/// spliced in front of the extension ("j.jsonl" -> "j.shard0.jsonl").
std::string shard_sidecar_path(const std::string& path, std::uint32_t index);

/// Sidecar path of one sweep cell: the cell key, '/' flattened to '-', is
/// spliced in front of the extension ("j.jsonl" + "fig8/varmail/sub" ->
/// "j.fig8-varmail-sub.jsonl").
std::string cell_sidecar_path(const std::string& path, std::string key);

/// Generator parameters of the full (pre-split) stream: the cell's
/// workload with its footprint defaulted/clamped to the plan's usable
/// striped space.
workload::SyntheticParams sharded_workload_params(const ExperimentSpec& spec,
                                                  const ShardPlan& plan);

/// Standalone leaf spec of shard `index`: sliced geometry, scaled knobs,
/// derived seed, shard-tagged headers and sidecar stream paths. The
/// caller attaches the shard's request slice (partition_stream over the
/// full generator) via spec.stream -- and that caller can be a test or
/// the macro-replay invariance gate re-running ONE shard alone: the
/// result is byte-identical to the same shard inside the full sharded
/// run.
ExperimentSpec make_shard_spec(const ExperimentSpec& spec,
                               const ShardPlan& plan, std::uint32_t index);

/// Runs a sharded cell: partitions the generated stream, runs every shard
/// as a task on the work-stealing pool (spec.shard_jobs workers), merges
/// in shard-index order. Called by run_experiment when spec.shards > 1.
RunResult run_sharded_experiment(const ExperimentSpec& spec);

}  // namespace esp::core
