// The benchmark's three workloads and how one cell of each is run.
//
// A cell is rebuilt from the public pieces -- core::Ssd, sim::Driver, the
// workload sources and core/shard.h's split -- exactly as
// core::run_experiment assembles it, so the benchmark can see the device
// and FTL before and after the measured window. Untraced, the only probe
// is a ChunkClock on the request stream, with a SpeedProbe pass between
// chunks. Traced, the warmed-up driver state moves to a driver over a
// TimedFtl, the stream is a TimedSource and observers sit behind a
// TimedSink. Both must digest equal to core::run_experiment on the same
// spec (checked by --trace 1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "probes.h"

namespace perfbench {

struct WorkloadDef {
  std::string name;
  /// Complete cell: workload params carry request_count = warmup +
  /// measured; shards > 1 for the sharded cell.
  esp::core::ExperimentSpec spec;
  std::uint64_t measured = 0;  ///< original requests per measured window
  std::uint64_t chunk = 0;     ///< ChunkClock chunk size, in requests
  int reps = 1;                ///< cells per --trace 0 run
  bool observers = false;      ///< health + forensics streams on
};

/// Builds workload `name` for `seed`. The measured request count is
/// `seconds` times the workload's nominal host rate, split over `reps`
/// cells, so simulated results are a pure function of (name, seed,
/// seconds). `out_dir` receives the observer sidecars. Throws on an
/// unknown name.
WorkloadDef make_workload(const std::string& name, std::uint64_t seed,
                          double seconds, const std::string& out_dir);

/// Cell `rep` of a --trace 0 run: rep 0 runs on the workload seed itself,
/// later cells on seeds derived from it, so a run pools independent
/// samples of the workload while staying a pure function of --seed.
WorkloadDef rep_cell(const WorkloadDef& def, int rep);

/// One leaf simulation (the whole cell when unsharded).
struct LeafRun {
  esp::core::RunResult result;  ///< as run_experiment reports it
  double precondition_s = 0.0;
  double warmup_s = 0.0;
  std::vector<Chunk> chunks;
  std::uint64_t probe_ns = 0;  ///< SpeedProbe passes inside the window
  std::uint64_t free_blocks_before = 0;  ///< FTL free pool, window start
  std::uint64_t free_blocks_after = 0;
  esp::nand::DeviceCounters device;  ///< window delta
  /// FtlStats deltas of the window's first and second half (requests).
  esp::ftl::FtlStats halves[2];
  std::uint64_t sidecar_bytes = 0;
  // Traced runs only.
  std::uint64_t window_start_ns = 0;  ///< first measured pull
  std::uint64_t window_end_ns = 0;    ///< stream exhaustion
  Timer gen, write, read, flush, trim, tick;
  std::uint64_t ftl_ns = 0;  ///< every forwarded FTL entry point
  Timer sink_ops, sink_causes, sink_blocks;
  SpanRecorder spans{0, 1};
};

struct CellRun {
  esp::core::RunResult result;  ///< merged for the sharded cell
  double setup_s = 0.0;         ///< cell start -> first measured request
  double split_s = 0.0;         ///< partition_stream (sharded only)
  std::vector<LeafRun> leaves;
  SpanRecorder cell_spans{64, 1};  ///< split / leaves / join (sharded only)
};

/// Runs one cell of `def`, traced or not.
CellRun run_cell(const WorkloadDef& def, bool traced);

/// Writes every recorded span of a traced cell as JSON lines.
void write_spans(const CellRun& run, const std::string& path);

/// Merges per-shard results the way core's shard join does, for the
/// fields the benchmark reads (sums, histogram merge, utilization).
esp::core::RunResult merge_shards(std::vector<esp::core::RunResult> shards,
                                  const esp::nand::Geometry& geo);

}  // namespace perfbench
