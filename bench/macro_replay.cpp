// Macro replay: production-scale end-to-end throughput of the whole stack.
//
// The figure/table benches run on a capacity-scaled device (bench_common.h)
// because the paper's *simulated-time* results are capacity-insensitive.
// Host-side replay speed is NOT: the maintenance paths the FTLs run between
// requests -- retention scans, static wear leveling, idle-block release --
// were O(device) linear scans, so wall-clock throughput collapsed once the
// geometry grew to production block counts. This bench pins the fix: it
// replays one seeded mixed workload (small sync updates + large cold writes
// + reads + trims) through all four FTLs at two geometries,
//
//   paper: 8ch x 4chip, 128 blk/chip, 256 pg/blk  (16 GiB, 4096 blocks)
//   prod:  8ch x 4chip, 2048 blk/chip, 64 pg/blk  (64 GiB, 65536 blocks)
//
// and for each cell runs BOTH maintenance implementations: the original
// O(device) scans (--maintenance scan / reference_scan_maintenance) and the
// incremental indices (retention queue, wear index, idle list). It reports
// host-ops/sec of wall-clock replay and the share of wall time spent inside
// each maintenance path (FtlStats::maint_*); the run aborts if the two
// modes' simulated-side stats diverge at all, so the committed
// BENCH_replay.json doubles as an equivalence witness.
//
// Maintenance cadence is deliberately aggressive (seconds, not the paper's
// days) plus per-request think time for dilation, so retention eviction and
// wear-leveling checks actually fire inside a minutes-long replay window;
// the *decisions* stay workload-driven, only the clock is compressed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/build_info.h"
#include "core/parallel_runner.h"
#include "core/shard.h"
#include "sim/driver.h"
#include "telemetry/forensics.h"
#include "telemetry/health.h"
#include "telemetry/json.h"
#include "telemetry/telemetry.h"
#include "util/table_printer.h"
#include "workload/splitter.h"

namespace {

using namespace esp;

constexpr std::uint64_t kBaseSeed = 2017;

struct Mode {
  std::string name;
  bool reference_scan = false;
  bool health = false;
  /// > 1: run the cell as N shared-nothing shard simulations (core/shard.h)
  /// with index maintenance; the merged result is deterministic and the
  /// wall clock is the fork-to-join measure window.
  unsigned shards = 1;
  bool forensics = false;
};

struct CellOut {
  core::RunResult r;
  double wall = 0.0;
};

double ops_per_sec(const CellOut& c) {
  return c.r.measure_wall_seconds > 0.0
             ? static_cast<double>(c.r.raw.requests) / c.r.measure_wall_seconds
             : 0.0;
}

/// CPU-time throughput: requests per CPU-second of the cell's worker
/// thread. Falls back to wall time where the platform lacks a thread CPU
/// clock. Informational in the per-cell JSON; the health gate uses the
/// in-process duel below instead.
double ops_per_cpu_sec(const CellOut& c) {
  return c.r.measure_cpu_seconds > 0.0
             ? static_cast<double>(c.r.raw.requests) / c.r.measure_cpu_seconds
             : ops_per_sec(c);
}

double maint_share(const ftl::FtlStats& s, double wall_seconds) {
  const double ns = static_cast<double>(s.maint_retention_ns +
                                        s.maint_wear_level_ns +
                                        s.maint_release_idle_ns);
  return wall_seconds > 0.0 ? ns / (wall_seconds * 1e9) : 0.0;
}

double gc_share(const ftl::FtlStats& s, double wall_seconds) {
  return wall_seconds > 0.0
             ? static_cast<double>(s.maint_gc_ns) / (wall_seconds * 1e9)
             : 0.0;
}

/// The replayed stream: a mixed profile rather than one of the paper's five
/// benchmarks -- small hot sync updates over a confined working set, colder
/// multi-page writes, a read-heavy tail and occasional trims, so every
/// maintenance path (GC, retention, wear leveling, idle release) has work.
workload::SyntheticParams mixed_workload(std::uint32_t sectors_per_page,
                                         std::uint64_t seed) {
  workload::SyntheticParams p;
  p.sectors_per_page = sectors_per_page;
  p.r_small = 0.6;
  p.r_synch = 0.9;
  p.read_fraction = 0.35;
  p.trim_fraction = 0.02;
  p.small_sectors_min = 1;
  p.small_sectors_max = 3;
  p.large_pages_min = 1;
  p.large_pages_max = 4;
  p.large_align_prob = 0.85;
  p.small_footprint_fraction = 0.25;
  p.think_us = 400.0;  // time dilation so retention scans fire mid-replay
  p.seed = seed;
  return p;
}

core::ExperimentCell make_cell(const std::string& geom_name,
                               const nand::Geometry& geo, core::FtlKind kind,
                               const Mode& mode, double budget_scale,
                               double measure_scale,
                               const std::string& health_out,
                               double health_interval_s) {
  core::ExperimentCell cell;
  cell.key = "replay/" + geom_name + "/" + core::ftl_kind_name(kind) + "/" +
             mode.name;
  if (mode.health) {
    cell.spec.health_path = bench::cell_journal_path(health_out, cell.key);
    cell.spec.health_interval_us = health_interval_s * sim_time::kSecond;
  }
  core::SsdConfig& ssd = cell.spec.ssd;
  ssd.geometry = geo;
  ssd.ftl = kind;
  // A point under the 0.80 bound: quota rounding at reduced (--quick)
  // block counts can push 0.80 + the 20% region over physical capacity.
  ssd.logical_fraction = 0.79;
  ssd.buffer_sectors = 1024;
  ssd.gc_reserve_blocks = 16;
  ssd.queue_depth = 128;
  // Compressed maintenance clock (see header comment).
  ssd.retention_scan_interval = 2 * sim_time::kSecond;
  ssd.retention_evict_age = 8 * sim_time::kSecond;
  ssd.wl_check_interval = 256;
  ssd.wl_pe_threshold = 8;
  ssd.reference_scan_maintenance = mode.reference_scan;
  cell.spec.shards = mode.shards;  // shard_jobs patched in by the caller

  // Seed per GEOMETRY: every FTL and both maintenance modes of a geometry
  // replay the identical request stream.
  auto params =
      mixed_workload(geo.subpages_per_page,
                     core::stable_cell_seed("replay/" + geom_name, kBaseSeed));
  const double write_fraction =
      1.0 - params.read_fraction - params.trim_fraction;
  const double avg_write_sectors =
      params.r_small * 0.5 *
          (params.small_sectors_min + params.small_sectors_max) +
      (1.0 - params.r_small) * 0.5 *
          (params.large_pages_min + params.large_pages_max) *
          params.sectors_per_page;
  const double warmup_sectors = 200000 * budget_scale;
  const double measure_sectors = 400000 * budget_scale * measure_scale;
  const auto reqs_for = [&](double budget) {
    return static_cast<std::uint64_t>(budget /
                                      (write_fraction * avg_write_sectors));
  };
  cell.spec.warmup_requests = reqs_for(warmup_sectors);
  params.request_count = cell.spec.warmup_requests + reqs_for(measure_sectors);
  cell.spec.workload = params;
  return cell;
}

/// Simulated-side outcomes must be BIT-identical between scan and index
/// maintenance -- the tentpole's equivalence contract. Compares everything
/// deterministic in the result (wall times and maint_* are host-side).
bool same_decisions(const core::RunResult& a, const core::RunResult& b) {
  const ftl::FtlStats& sa = a.raw.ftl_stats;
  const ftl::FtlStats& sb = b.raw.ftl_stats;
  return a.gc_invocations == b.gc_invocations && a.erases == b.erases &&
         a.rmw_ops == b.rmw_ops && a.verify_failures == b.verify_failures &&
         a.overall_waf == b.overall_waf &&
         a.small_request_waf == b.small_request_waf &&
         a.raw.requests == b.raw.requests && a.raw.end_us == b.raw.end_us &&
         sa.host_write_sectors == sb.host_write_sectors &&
         sa.flash_prog_full == sb.flash_prog_full &&
         sa.flash_prog_sub == sb.flash_prog_sub &&
         sa.gc_copy_sectors == sb.gc_copy_sectors &&
         sa.retention_evictions == sb.retention_evictions &&
         sa.wear_level_relocations == sb.wear_level_relocations;
}

/// Shard-merge reconciliation: the merged top-level counters of a sharded
/// run must equal the sums over its shard_results -- the join is pure
/// bookkeeping, never a re-simulation.
bool merged_equals_sum(const core::RunResult& m) {
  std::uint64_t requests = 0, erases = 0, gc = 0, rmw = 0, verify = 0;
  std::uint64_t host_writes = 0, prog_full = 0, prog_sub = 0;
  for (const core::RunResult& r : m.shard_results) {
    requests += r.raw.requests;
    erases += r.erases;
    gc += r.gc_invocations;
    rmw += r.rmw_ops;
    verify += r.verify_failures;
    host_writes += r.raw.ftl_stats.host_write_sectors;
    prog_full += r.raw.ftl_stats.flash_prog_full;
    prog_sub += r.raw.ftl_stats.flash_prog_sub;
  }
  return m.raw.requests == requests && m.erases == erases &&
         m.gc_invocations == gc && m.rmw_ops == rmw &&
         m.verify_failures == verify &&
         m.raw.ftl_stats.host_write_sectors == host_writes &&
         m.raw.ftl_stats.flash_prog_full == prog_full &&
         m.raw.ftl_stats.flash_prog_sub == prog_sub;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return {};
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Result of one paired observer duel (see run_health_duel and
/// run_forensics_duel): cpu_index is always the stream-off side, cpu_stream
/// the stream-on side; only the counters of the stream under test are set.
struct DuelResult {
  double cpu_index = 0.0;   ///< thread-CPU seconds, stream-off side
  double cpu_health = 0.0;  ///< thread-CPU seconds, stream-on side
  std::uint64_t requests = 0;
  std::uint64_t health_epochs = 0;
  std::uint64_t health_lines = 0;
  std::uint64_t forensics_requests = 0;
  std::uint64_t forensics_exemplars = 0;
  bool same_decisions = true;
};

/// The health gate's measurement: two identical simulators -- health
/// stream off (A) and on (B) -- stepped on ONE thread in alternating
/// 1024-request chunks, accumulating each side's thread-CPU time.
///
/// Why not compare two whole cells? Per-cell CPU time on a shared,
/// frequency-scaled host wanders by far more than the 3% gate threshold
/// (the thread CPU clock counts seconds, not cycles, so it cannot see
/// DVFS), and no estimator over serially-run cells cancels drift on that
/// scale. Chunk interleaving makes both sides sample the same machine
/// state at millisecond granularity; the chunk order also flips every
/// iteration (A B | B A | ...) so linear drift cancels within each pair.
/// The ratio of accumulated CPU times then isolates what the gate is
/// actually after: the health stream's own per-op cost.
DuelResult run_health_duel(const core::ExperimentSpec& index_spec,
                           const core::ExperimentSpec& health_spec) {
  // Sink lifetimes mirror run_experiment: stream, monitor and facade must
  // outlive the Ssd (its destructor materializes the telemetry registry).
  std::ofstream health_os(health_spec.health_path,
                          std::ios::out | std::ios::trunc | std::ios::binary);
  if (!health_os)
    throw std::runtime_error("duel: cannot open health file: " +
                             health_spec.health_path);
  const auto& geo = health_spec.ssd.geometry;
  telemetry::HealthHeader hdr;
  hdr.ftl = core::ftl_kind_name(health_spec.ssd.ftl);
  hdr.chips = geo.total_chips();
  hdr.blocks_per_chip = geo.blocks_per_chip;
  hdr.pages_per_block = geo.pages_per_block;
  hdr.subpages_per_page = geo.subpages_per_page;
  hdr.seed = health_spec.workload.seed;
  hdr.interval_us = health_spec.health_interval_us;
  hdr.rated_pe = health_spec.health_rated_pe;
  telemetry::HealthMonitor health(health_os, hdr);
  telemetry::TelemetryConfig cfg;
  cfg.trace_capacity = 256;
  cfg.op_detail = false;  // the lean always-on facade run_experiment owns
  telemetry::Telemetry tel(cfg);

  core::Ssd a(index_spec.ssd);
  core::Ssd b(health_spec.ssd);
  a.precondition(index_spec.precondition_fraction);
  b.precondition(health_spec.precondition_fraction);
  tel.set_health(&health);
  b.attach_telemetry(&tel);  // epoch 0: the post-precondition baseline

  const auto stream_params = [](const core::ExperimentSpec& spec,
                                const core::Ssd& ssd) {
    // Footprint defaulting duplicated from run_experiment: the duel drives
    // the drivers directly so chunk boundaries stay under its control.
    workload::SyntheticParams p = spec.workload;
    if (p.footprint_sectors == 0) {
      const std::uint32_t subs = spec.ssd.geometry.subpages_per_page;
      p.footprint_sectors =
          static_cast<std::uint64_t>(
              spec.precondition_fraction *
              static_cast<double>(ssd.logical_sectors())) /
          subs * subs;
    }
    return p;
  };
  workload::SyntheticWorkload sa(stream_params(index_spec, a));
  workload::SyntheticWorkload sb(stream_params(health_spec, b));

  if (index_spec.warmup_requests > 0) {
    a.driver().run(sa, /*verify=*/false, index_spec.warmup_requests);
    b.driver().run(sb, /*verify=*/false, health_spec.warmup_requests);
  }
  // The end-of-warmup epoch lands outside the timed chunks.
  b.driver().close_health_epoch();

  DuelResult out;
  std::uint64_t failures_a = 0, failures_b = 0;
  SimTime end_a = 0.0, end_b = 0.0;
  std::uint64_t remaining =
      index_spec.workload.request_count > index_spec.warmup_requests
          ? index_spec.workload.request_count - index_spec.warmup_requests
          : 0;
  bool flip = false;
  while (remaining > 0) {
    const std::uint64_t n = std::min<std::uint64_t>(1024, remaining);
    const auto step = [n](core::Ssd& ssd, workload::SyntheticWorkload& stream,
                          double& cpu, std::uint64_t& failures,
                          SimTime& end_us) {
      const double t0 = core::thread_cpu_seconds();
      const sim::RunMetrics m = ssd.driver().run(stream, /*verify=*/true, n);
      cpu += core::thread_cpu_seconds() - t0;
      failures += m.verify_failures;
      end_us = m.end_us;
      return m.requests;
    };
    if (flip) {
      step(b, sb, out.cpu_health, failures_b, end_b);
      out.requests += step(a, sa, out.cpu_index, failures_a, end_a);
    } else {
      out.requests += step(a, sa, out.cpu_index, failures_a, end_a);
      step(b, sb, out.cpu_health, failures_b, end_b);
    }
    flip = !flip;
    remaining -= n;
  }

  // End-of-run snapshot is teardown I/O, outside the timed chunks -- the
  // same contract run_experiment applies to its wall/CPU window.
  b.driver().close_health_epoch();
  health.finish();
  out.health_epochs = health.epochs_written();
  out.health_lines = health.lines_written();

  // Both sides must have replayed to the same simulated end state: the
  // health stream is a passive observer even when polled mid-stream.
  const ftl::FtlStats stats_a = a.ftl().stats();
  const ftl::FtlStats stats_b = b.ftl().stats();
  out.same_decisions =
      end_a == end_b && failures_a == 0 && failures_b == 0 &&
      stats_a.host_write_sectors == stats_b.host_write_sectors &&
      stats_a.flash_prog_full == stats_b.flash_prog_full &&
      stats_a.flash_prog_sub == stats_b.flash_prog_sub &&
      stats_a.gc_copy_sectors == stats_b.gc_copy_sectors &&
      stats_a.gc_invocations == stats_b.gc_invocations &&
      stats_a.rmw_ops == stats_b.rmw_ops &&
      stats_a.retention_evictions == stats_b.retention_evictions &&
      stats_a.wear_level_relocations == stats_b.wear_level_relocations &&
      a.device().counters().erases == b.device().counters().erases;

  tel.set_health(nullptr);
  return out;
}

/// The forensics gate's measurement: the same one-thread alternating-chunk
/// duel as run_health_duel, but side B attaches the per-request latency
/// forensics collector (phase attribution + top-K exemplars). Unlike the
/// health duel, BOTH sides carry the lean always-on facade run_experiment
/// would attach anyway: the gate bounds the *marginal* cost of switching
/// --forensics-out on, which is the decision a user actually makes (the
/// facade itself is priced by the health gate's bare baseline). Proves the
/// collector is a passive observer whose per-request tax stays under the
/// gate.
DuelResult run_forensics_duel(const core::ExperimentSpec& index_spec,
                              const core::ExperimentSpec& forensics_spec) {
  std::ofstream forensics_os(
      forensics_spec.forensics_path,
      std::ios::out | std::ios::trunc | std::ios::binary);
  if (!forensics_os)
    throw std::runtime_error("duel: cannot open forensics file: " +
                             forensics_spec.forensics_path);
  const auto& geo = forensics_spec.ssd.geometry;
  telemetry::ForensicsHeader hdr;
  hdr.ftl = core::ftl_kind_name(forensics_spec.ssd.ftl);
  hdr.chips = geo.total_chips();
  hdr.blocks_per_chip = geo.blocks_per_chip;
  hdr.pages_per_block = geo.pages_per_block;
  hdr.subpages_per_page = geo.subpages_per_page;
  hdr.page_bytes = geo.page_bytes;
  hdr.seed = forensics_spec.workload.seed;
  telemetry::ForensicsCollector::Config fcfg;
  fcfg.top_k = forensics_spec.forensics_top;
  fcfg.audit = forensics_spec.audit;
  telemetry::ForensicsCollector forensics(forensics_os, hdr, fcfg);
  telemetry::TelemetryConfig cfg;
  cfg.trace_capacity = 256;
  cfg.op_detail = false;  // the lean always-on facade run_experiment owns
  telemetry::Telemetry tel_a(cfg);
  telemetry::Telemetry tel(cfg);

  core::Ssd a(index_spec.ssd);
  core::Ssd b(forensics_spec.ssd);
  a.precondition(index_spec.precondition_fraction);
  b.precondition(forensics_spec.precondition_fraction);
  a.attach_telemetry(&tel_a);
  tel.set_forensics(&forensics);
  b.attach_telemetry(&tel);

  const auto stream_params = [](const core::ExperimentSpec& spec,
                                const core::Ssd& ssd) {
    workload::SyntheticParams p = spec.workload;
    if (p.footprint_sectors == 0) {
      const std::uint32_t subs = spec.ssd.geometry.subpages_per_page;
      p.footprint_sectors =
          static_cast<std::uint64_t>(
              spec.precondition_fraction *
              static_cast<double>(ssd.logical_sectors())) /
          subs * subs;
    }
    return p;
  };
  workload::SyntheticWorkload sa(stream_params(index_spec, a));
  workload::SyntheticWorkload sb(stream_params(forensics_spec, b));

  if (index_spec.warmup_requests > 0) {
    a.driver().run(sa, /*verify=*/false, index_spec.warmup_requests);
    b.driver().run(sb, /*verify=*/false, forensics_spec.warmup_requests);
  }

  DuelResult out;
  std::uint64_t failures_a = 0, failures_b = 0;
  SimTime end_a = 0.0, end_b = 0.0;
  std::uint64_t remaining =
      index_spec.workload.request_count > index_spec.warmup_requests
          ? index_spec.workload.request_count - index_spec.warmup_requests
          : 0;
  bool flip = false;
  while (remaining > 0) {
    const std::uint64_t n = std::min<std::uint64_t>(1024, remaining);
    const auto step = [n](core::Ssd& ssd, workload::SyntheticWorkload& stream,
                          double& cpu, std::uint64_t& failures,
                          SimTime& end_us) {
      const double t0 = core::thread_cpu_seconds();
      const sim::RunMetrics m = ssd.driver().run(stream, /*verify=*/true, n);
      cpu += core::thread_cpu_seconds() - t0;
      failures += m.verify_failures;
      end_us = m.end_us;
      return m.requests;
    };
    if (flip) {
      step(b, sb, out.cpu_health, failures_b, end_b);
      out.requests += step(a, sa, out.cpu_index, failures_a, end_a);
    } else {
      out.requests += step(a, sa, out.cpu_index, failures_a, end_a);
      step(b, sb, out.cpu_health, failures_b, end_b);
    }
    flip = !flip;
    remaining -= n;
  }

  // The trailing exemplar/blame dump is teardown I/O, outside the timed
  // chunks -- same contract as the health duel's end-of-run snapshot.
  forensics.finish();
  out.forensics_requests = forensics.requests();
  out.forensics_exemplars = forensics.exemplars_retained();

  const ftl::FtlStats stats_a = a.ftl().stats();
  const ftl::FtlStats stats_b = b.ftl().stats();
  out.same_decisions =
      end_a == end_b && failures_a == 0 && failures_b == 0 &&
      stats_a.host_write_sectors == stats_b.host_write_sectors &&
      stats_a.flash_prog_full == stats_b.flash_prog_full &&
      stats_a.flash_prog_sub == stats_b.flash_prog_sub &&
      stats_a.gc_copy_sectors == stats_b.gc_copy_sectors &&
      stats_a.gc_invocations == stats_b.gc_invocations &&
      stats_a.rmw_ops == stats_b.rmw_ops &&
      stats_a.retention_evictions == stats_b.retention_evictions &&
      stats_a.wear_level_relocations == stats_b.wear_level_relocations &&
      a.device().counters().erases == b.device().counters().erases;

  tel.set_forensics(nullptr);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  std::string geometry_filter = "both";
  unsigned jobs = 0;
  bool quick = false;
  double health_gate_pct = -1.0;  // <0 = no health cells
  std::string health_out = "replay_health.jsonl";
  // Endpoint epochs by default: the gate bounds the ALWAYS-ON per-op tax
  // of the health stream. Snapshot cost is a separate, user-chosen knob --
  // O(blocks) per epoch at whatever cadence --health-interval picks -- and
  // this bench's deliberately compressed clock (400 us think time) would
  // make any fixed simulated-seconds cadence absurdly aggressive: 1 sim-s
  // is ~2500 requests here, vs minutes of real traffic on a device.
  double health_interval_s = 0.0;
  double forensics_gate_pct = -1.0;  // <0 = no forensics cells
  std::string forensics_out = "replay_forensics.jsonl";
  std::uint32_t forensics_top = 16;
  std::vector<unsigned> shard_counts;  // --shards 4,8: extra sharded modes
  unsigned shard_jobs = 0;             // 0 = hardware concurrency
  std::uint64_t snapshot_every = 0;    // --snapshot-every N: restart gate
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--shards" && i + 1 < argc) {
      std::stringstream ss(argv[++i]);
      std::string item;
      while (std::getline(ss, item, ',')) {
        const unsigned n =
            static_cast<unsigned>(std::strtoul(item.c_str(), nullptr, 10));
        if (n < 2) {
          std::fprintf(stderr, "--shards values must be >= 2\n");
          return 2;
        }
        shard_counts.push_back(n);
      }
    } else if (arg == "--shard-jobs" && i + 1 < argc) {
      shard_jobs = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--geometry" && i + 1 < argc) {
      geometry_filter = argv[++i];
      if (geometry_filter != "paper" && geometry_filter != "prod" &&
          geometry_filter != "both") {
        std::fprintf(stderr, "--geometry must be paper|prod|both\n");
        return 2;
      }
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--health-gate" && i + 1 < argc) {
      health_gate_pct = std::atof(argv[++i]);
    } else if (arg == "--health-out" && i + 1 < argc) {
      health_out = argv[++i];
    } else if (arg == "--health-interval" && i + 1 < argc) {
      health_interval_s = std::atof(argv[++i]);
    } else if (arg == "--forensics-gate" && i + 1 < argc) {
      forensics_gate_pct = std::atof(argv[++i]);
    } else if (arg == "--forensics-out" && i + 1 < argc) {
      forensics_out = argv[++i];
    } else if (arg == "--forensics-top" && i + 1 < argc) {
      forensics_top =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--snapshot-every" && i + 1 < argc) {
      snapshot_every = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json PATH] [--jobs N] "
                   "[--geometry paper|prod|both] [--quick]\n"
                   "          [--shards N[,N...]] [--shard-jobs N]\n"
                   "          [--health-gate PCT] [--health-out PATH] "
                   "[--health-interval SIM_SECONDS]\n"
                   "--shards adds one sharded mode per listed count (index "
                   "maintenance,\nN shared-nothing shard simulations merged "
                   "deterministically; see\ndocs/PERFORMANCE.md) plus FATAL "
                   "shard-invariance gates: merged counters\nmust equal the "
                   "sum of shards, and a shard re-run alone must write a\n"
                   "byte-identical journal. --shard-jobs caps the shard "
                   "worker pool\n(0 = hardware concurrency). Measure sharded "
                   "speedup with --jobs 1.\n"
                   "--health-gate adds a third per-FTL mode (index "
                   "maintenance + health\nstream enabled) plus, per "
                   "(geometry, FTL), a paired in-process duel:\nhealth-on "
                   "vs health-off simulators stepped in alternating 1024-"
                   "request\nchunks on one thread. Fails if the avg over "
                   "FTLs of the duel's\nCPU-time overhead exceeds PCT%%.\n"
                   "--forensics-gate PCT does the same for the latency-"
                   "forensics collector\n(per-request phase attribution + "
                   "top-K exemplars): a forensics mode cell\nplus a paired "
                   "duel per (geometry, FTL). --forensics-out/--forensics-"
                   "top\nset the sidecar path and exemplar count.\n"
                   "--snapshot-every N adds a FATAL restartable-replay "
                   "gate: a subFTL\njournal cell re-run as a chain of "
                   "segments, each restoring the previous\ncheckpoint and "
                   "replaying N more measured requests, must leave a\n"
                   "byte-identical journal to the straight-through run.\n",
                   argv[0]);
      return 2;
    }
  }
  const bool with_health = health_gate_pct >= 0.0;
  const bool with_forensics = forensics_gate_pct >= 0.0;

  // --quick (the CI perf-smoke scale): quarter the block count of both
  // profiles and an eighth of the request budget. Shares and speedups keep
  // their shape; absolute numbers shrink.
  std::vector<std::pair<std::string, nand::Geometry>> geometries;
  for (const char* name : {"paper", "prod"}) {
    if (geometry_filter != "both" && geometry_filter != name) continue;
    nand::Geometry g = nand::geometry_profile(name);
    if (quick) g.blocks_per_chip /= 4;
    geometries.emplace_back(name, g);
  }
  const double budget_scale = quick ? 0.125 : 1.0;

  std::printf("==============================================================\n");
  std::printf("Macro replay -- wall-clock throughput, scan vs index maintenance\n");
  for (const auto& [name, geo] : geometries)
    std::printf("%-6s %s\n", name.c_str(), geo.describe().c_str());
  std::printf("==============================================================\n");

  const auto kinds = {core::FtlKind::kCgm, core::FtlKind::kFgm,
                      core::FtlKind::kSub, core::FtlKind::kSectorLog};
  std::vector<Mode> modes = {{"scan", true, false}, {"index", false, false}};
  for (const unsigned n : shard_counts)
    modes.push_back({"shard" + std::to_string(n), false, false, n});
  if (with_health) modes.push_back({"health", false, true});
  if (with_forensics) modes.push_back({"forensics", false, false, 1, true});
  std::vector<core::ExperimentCell> cells;
  for (const auto& [name, geo] : geometries)
    for (const auto kind : kinds)
      for (const auto& mode : modes) {
        cells.push_back(make_cell(name, geo, kind, mode, budget_scale,
                                  /*measure_scale=*/1.0, health_out,
                                  health_interval_s));
        cells.back().spec.shard_jobs = shard_jobs;
        if (mode.forensics) {
          cells.back().spec.forensics_path =
              bench::cell_journal_path(forensics_out, cells.back().key);
          cells.back().spec.forensics_top = forensics_top;
        }
      }

  core::ParallelRunnerConfig runner_cfg;
  runner_cfg.jobs = jobs;
  runner_cfg.base_seed = kBaseSeed;
  runner_cfg.derive_seeds = false;  // seeds fixed per geometry above
  core::ParallelRunner runner(runner_cfg);
  const auto results = runner.run(cells);
  std::printf("ran %zu cells on %u worker(s) in %.1fs\n", cells.size(),
              runner.manifest().jobs_used, runner.manifest().wall_seconds);

  // grid[geometry][ftl][mode] -> cell result.
  std::map<std::string, std::map<std::string, std::map<std::string, CellOut>>>
      grid;
  {
    std::size_t i = 0;
    for (const auto& [name, geo] : geometries) {
      (void)geo;
      for (const auto kind : kinds)
        for (const auto& mode : modes) {
          const auto& cell = results[i++];
          if (!cell.ok) {
            std::fprintf(stderr, "FATAL: cell %s failed: %s\n",
                         cell.key.c_str(), cell.error.c_str());
            return 1;
          }
          if (cell.result.verify_failures != 0) {
            std::fprintf(stderr, "FATAL: %llu verify failures (%s)\n",
                         static_cast<unsigned long long>(
                             cell.result.verify_failures),
                         cell.key.c_str());
            return 1;
          }
          grid[name][core::ftl_kind_name(kind)][mode.name] =
              CellOut{cell.result, cell.wall_seconds};
        }
    }
  }

  bool identical = true;
  for (const auto& [geom, per_ftl] : grid)
    for (const auto& [ftl, per_mode] : per_ftl) {
      const core::RunResult& index = per_mode.at("index").r;
      if (!same_decisions(per_mode.at("scan").r, index)) {
        std::fprintf(stderr,
                     "FATAL: scan/index decisions diverged for %s/%s\n",
                     geom.c_str(), ftl.c_str());
        identical = false;
      }
      // The health cell must make the same simulated decisions as the
      // health-off index cell: the stream is a passive observer.
      if (with_health && !same_decisions(per_mode.at("health").r, index)) {
        std::fprintf(stderr,
                     "FATAL: health observation changed decisions for %s/%s\n",
                     geom.c_str(), ftl.c_str());
        identical = false;
      }
      // Same contract for the forensics collector: per-request phase
      // attribution must never perturb the simulation it observes.
      if (with_forensics &&
          !same_decisions(per_mode.at("forensics").r, index)) {
        std::fprintf(
            stderr,
            "FATAL: forensics observation changed decisions for %s/%s\n",
            geom.c_str(), ftl.c_str());
        identical = false;
      }
      // Sharded cells are a different (reproducible) model point, so they
      // are not compared against the unsharded decisions; their gate is
      // the merge reconciliation: merged counters == sum of shards.
      for (const unsigned n : shard_counts) {
        const core::RunResult& sharded =
            per_mode.at("shard" + std::to_string(n)).r;
        if (sharded.shard_results.size() != n ||
            !merged_equals_sum(sharded)) {
          std::fprintf(stderr,
                       "FATAL: sharded merge != sum of shards for %s/%s "
                       "(shards %u)\n",
                       geom.c_str(), ftl.c_str(), n);
          identical = false;
        }
      }
    }
  if (!identical) return 1;
  std::printf("\nscan/index simulated decisions identical for all cells\n");
  if (!shard_counts.empty())
    std::printf("sharded merges reconcile (merged == sum of shards) for all "
                "cells\n");

  // Shard-invariance journal gate: one subFTL sharded cell per (geometry,
  // shard count), re-run at reduced budget with journal sidecars; shard 0
  // is then re-run ALONE through the same leaf-spec construction and must
  // write a byte-identical journal -- a shard's simulation cannot depend
  // on its siblings or the thread schedule.
  for (const auto& [geom, geo] : geometries)
    for (const unsigned n : shard_counts) {
      const Mode gate_mode{"shard" + std::to_string(n) + "-gate", false,
                           false, n};
      auto gate = make_cell(geom, geo, core::FtlKind::kSub, gate_mode,
                            budget_scale, /*measure_scale=*/0.25, health_out,
                            health_interval_s);
      gate.spec.shard_jobs = shard_jobs;
      gate.spec.journal_path =
          "replay_shard_gate_" + geom + "_s" + std::to_string(n) + ".jsonl";
      gate.spec.journal_max_events = 500000;  // per-shard cap, bounds disk
      const core::RunResult joint = core::run_experiment(gate.spec);

      core::ExperimentSpec alone_base = gate.spec;
      alone_base.journal_path = "replay_shard_gate_" + geom + "_s" +
                                std::to_string(n) + "_alone.jsonl";
      const core::ShardPlan plan = core::make_shard_plan(alone_base);
      const workload::SyntheticParams params =
          core::sharded_workload_params(alone_base, plan);
      workload::SyntheticWorkload generator(params);
      const workload::ShardSplitter splitter(
          plan.shards, plan.stripe_pages,
          alone_base.ssd.geometry.subpages_per_page, plan.shard_sectors);
      auto streams = workload::partition_stream(generator, splitter, 0,
                                                alone_base.warmup_requests);
      core::ExperimentSpec leaf = core::make_shard_spec(alone_base, plan, 0);
      leaf.warmup_requests = streams[0].warmup_requests;
      leaf.workload.request_count = streams[0].requests.size();
      workload::VectorSource source(std::move(streams[0].requests));
      leaf.stream = &source;
      const core::RunResult alone = core::run_experiment(leaf);

      const std::string joint_journal =
          slurp(core::shard_sidecar_path(gate.spec.journal_path, 0));
      const std::string alone_journal = slurp(leaf.journal_path);
      if (joint_journal.empty() || joint_journal != alone_journal ||
          !same_decisions(alone, joint.shard_results.at(0))) {
        std::fprintf(stderr,
                     "FATAL: shard 0 alone diverged from shard 0 among "
                     "siblings for %s (shards %u)\n",
                     geom.c_str(), n);
        return 1;
      }
    }
  if (!shard_counts.empty())
    std::printf("shard-invariance journal gate passed (alone == among "
                "siblings)\n");

  // Restartable-replay gate (--snapshot-every N): a replay interrupted at
  // any checkpoint and restarted from it must be indistinguishable from an
  // uninterrupted run. One subFTL journal cell per geometry runs straight
  // through as the reference, then again as a chain of segments: segment i
  // restores the previous checkpoint, replays N more measured requests,
  // checkpoints and exits (the final segment runs to the end of the
  // budget). Restores truncate the journal to the checkpoint offset and
  // append, so the chain leaves ONE journal file -- it must byte-match the
  // reference, and the cumulative simulated end state must agree.
  std::map<std::string, unsigned> restart_segments;
  if (snapshot_every > 0)
    for (const auto& [geom, geo] : geometries) {
      const Mode gate_mode{"restart-gate", false, false, 1};
      const auto cell = make_cell(geom, geo, core::FtlKind::kSub, gate_mode,
                                  budget_scale, /*measure_scale=*/0.25,
                                  health_out, health_interval_s);

      core::ExperimentSpec ref = cell.spec;
      ref.journal_path = "replay_restart_" + geom + "_ref.jsonl";
      ref.journal_max_events = 500000;
      const core::RunResult straight = core::run_experiment(ref);

      const std::string ckpt = "replay_restart_" + geom + ".snap";
      const std::string chained_path =
          "replay_restart_" + geom + "_chained.jsonl";
      const std::uint64_t measured =
          cell.spec.workload.request_count - cell.spec.warmup_requests;
      std::uint64_t done = 0;
      unsigned segments = 0;
      core::RunResult last;
      while (true) {
        core::ExperimentSpec seg = cell.spec;
        seg.journal_path = chained_path;
        seg.journal_max_events = 500000;
        if (done > 0) seg.snapshot_in = ckpt;
        const bool final_segment = measured - done <= snapshot_every;
        if (!final_segment) {
          seg.snapshot_out = ckpt;
          seg.snapshot_after_requests = snapshot_every;
          // Exhaust the stream exactly at the cut: the checkpoint leg runs
          // N requests and the post-checkpoint leg finds nothing left.
          seg.workload.request_count =
              cell.spec.warmup_requests + done + snapshot_every;
          done += snapshot_every;
        }
        last = core::run_experiment(seg);
        ++segments;
        if (final_segment) break;
      }

      const std::string ref_journal = slurp(ref.journal_path);
      const std::string chained_journal = slurp(chained_path);
      if (ref_journal.empty() || ref_journal != chained_journal ||
          last.raw.end_us != straight.raw.end_us ||
          last.raw.device_erases != straight.raw.device_erases ||
          last.verify_failures != 0 || straight.verify_failures != 0) {
        std::fprintf(stderr,
                     "FATAL: restart chain (%u segments of %llu) diverged "
                     "from straight-through replay for %s\n",
                     segments,
                     static_cast<unsigned long long>(snapshot_every),
                     geom.c_str());
        return 1;
      }
      restart_segments[geom] = segments;
      std::printf("restartable-replay gate passed for %s (%u segments, "
                  "journal byte-identical)\n",
                  geom.c_str(), segments);
    }

  std::map<std::string, double> avg_speedup;
  for (const auto& [geom, geo] : geometries) {
    std::printf("\n%s geometry (%s)\n\n", geom.c_str(),
                geo.describe().c_str());
    util::TablePrinter t({"FTL", "scan ops/s", "index ops/s", "speedup",
                          "maint% scan", "maint% index", "gc% index"});
    double sum = 0.0;
    for (const auto kind : kinds) {
      const auto& per_mode = grid[geom][core::ftl_kind_name(kind)];
      const CellOut& scan = per_mode.at("scan");
      const CellOut& index = per_mode.at("index");
      const double scan_ops = ops_per_sec(scan);
      const double index_ops = ops_per_sec(index);
      const double speedup = scan_ops > 0.0 ? index_ops / scan_ops : 0.0;
      sum += speedup;
      t.add_row({core::ftl_kind_name(kind),
                 util::TablePrinter::num(scan_ops, 0),
                 util::TablePrinter::num(index_ops, 0),
                 util::TablePrinter::num(speedup, 2),
                 util::TablePrinter::pct(
                     maint_share(scan.r.raw.ftl_stats,
                                 scan.r.measure_wall_seconds),
                     1),
                 util::TablePrinter::pct(
                     maint_share(index.r.raw.ftl_stats,
                                 index.r.measure_wall_seconds),
                     1),
                 util::TablePrinter::pct(
                     gc_share(index.r.raw.ftl_stats,
                              index.r.measure_wall_seconds),
                     1)});
    }
    t.print(std::cout);
    avg_speedup[geom] = sum / 4.0;
    std::printf("avg host-replay speedup (index vs scan): %.2fx\n",
                sum / 4.0);
  }

  // Intra-cell sharding: fork-to-join wall-clock throughput of each
  // sharded mode vs the unsharded index cell, plus shard balance (mean
  // per-chip utilization over the merged measured window).
  std::map<std::string, std::map<unsigned, double>> avg_shard_speedup;
  if (!shard_counts.empty()) {
    for (const auto& [geom, geo] : geometries) {
      std::printf("\n%s geometry -- intra-cell sharding (%s)\n\n",
                  geom.c_str(), geo.describe().c_str());
      std::vector<std::string> header = {"FTL", "index ops/s"};
      for (const unsigned n : shard_counts) {
        header.push_back("s" + std::to_string(n) + " ops/s");
        header.push_back("speedup");
        header.push_back("chip util");
      }
      util::TablePrinter t(header);
      std::map<unsigned, double> sums;
      for (const auto kind : kinds) {
        const auto& per_mode = grid[geom][core::ftl_kind_name(kind)];
        const double index_ops = ops_per_sec(per_mode.at("index"));
        std::vector<std::string> row = {
            core::ftl_kind_name(kind), util::TablePrinter::num(index_ops, 0)};
        for (const unsigned n : shard_counts) {
          const CellOut& c = per_mode.at("shard" + std::to_string(n));
          const double ops = ops_per_sec(c);
          const double speedup = index_ops > 0.0 ? ops / index_ops : 0.0;
          sums[n] += speedup;
          row.push_back(util::TablePrinter::num(ops, 0));
          row.push_back(util::TablePrinter::num(speedup, 2) + "x");
          row.push_back(
              util::TablePrinter::pct(c.r.chip_util_mean, 1));
        }
        t.add_row(row);
      }
      t.print(std::cout);
      for (const unsigned n : shard_counts) {
        avg_shard_speedup[geom][n] = sums[n] / 4.0;
        std::printf("avg sharded speedup (shards %u vs unsharded index): "
                    "%.2fx\n",
                    n, sums[n] / 4.0);
      }
    }
    if (std::thread::hardware_concurrency() <= 1)
      std::printf("single-core host: fork-to-join shard speedups are "
                  "provenance only (the JSON records host_cores; CI skips "
                  "the speedup comparison at 1 core)\n");
  }

  // Health-observability gate: one paired in-process duel per (geometry,
  // FTL) -- health-on vs health-off simulators stepped in alternating
  // 1024-request chunks on this thread (see run_health_duel), compared in
  // thread-CPU time so neither other tenants of the machine nor frequency
  // scaling can move the ratio. Overheads are averaged over the four FTLs.
  // The duel gets a 4x measure budget: a 3% ratio needs a few hundred
  // milliseconds of CPU per side to be readable at all.
  std::map<std::string, double> avg_health_overhead;
  std::map<std::string, std::map<std::string, DuelResult>> duels;
  bool health_pass = true;
  if (with_health) {
    const Mode index_mode{"index", false, false};
    const Mode health_mode{"health", false, true};
    for (const auto& [geom, geo] : geometries) {
      std::printf("\n%s geometry -- health-stream overhead (gate %.1f%%)\n\n",
                  geom.c_str(), health_gate_pct);
      util::TablePrinter t({"FTL", "index ops/cpu-s", "health ops/cpu-s",
                            "overhead", "epochs", "lines"});
      double sum = 0.0;
      for (const auto kind : kinds) {
        const auto index_cell =
            make_cell(geom, geo, kind, index_mode, budget_scale,
                      /*measure_scale=*/4.0, health_out, health_interval_s);
        auto health_cell =
            make_cell(geom, geo, kind, health_mode, budget_scale,
                      /*measure_scale=*/4.0, health_out, health_interval_s);
        // Distinct stream path: the parallel health cell above already
        // owns this key's artifact.
        health_cell.spec.health_path =
            bench::cell_journal_path(health_out, health_cell.key + "#duel");
        const DuelResult d =
            run_health_duel(index_cell.spec, health_cell.spec);
        if (!d.same_decisions) {
          std::fprintf(
              stderr,
              "FATAL: health observation changed duel decisions for %s/%s\n",
              geom.c_str(), core::ftl_kind_name(kind).c_str());
          return 1;
        }
        const double index_ops =
            d.cpu_index > 0.0
                ? static_cast<double>(d.requests) / d.cpu_index
                : 0.0;
        const double health_ops =
            d.cpu_health > 0.0
                ? static_cast<double>(d.requests) / d.cpu_health
                : 0.0;
        const double overhead =
            d.cpu_index > 0.0 ? d.cpu_health / d.cpu_index - 1.0 : 0.0;
        sum += overhead;
        duels[geom][core::ftl_kind_name(kind)] = d;
        t.add_row({core::ftl_kind_name(kind),
                   util::TablePrinter::num(index_ops, 0),
                   util::TablePrinter::num(health_ops, 0),
                   util::TablePrinter::pct(overhead, 2),
                   std::to_string(d.health_epochs),
                   std::to_string(d.health_lines)});
      }
      t.print(std::cout);
      const double avg = sum / 4.0;
      avg_health_overhead[geom] = avg;
      const bool ok = avg <= health_gate_pct / 100.0;
      health_pass &= ok;
      std::printf("avg health-stream overhead: %.2f%% -- %s\n", avg * 100.0,
                  ok ? "PASS" : "FAIL");
    }
  }

  // Forensics-overhead gate: the same paired-duel design, with the latency
  // forensics collector (phase attribution, windowed blame, top-K exemplar
  // heap) as the stream under test.
  std::map<std::string, double> avg_forensics_overhead;
  std::map<std::string, std::map<std::string, DuelResult>> forensics_duels;
  bool forensics_pass = true;
  if (with_forensics) {
    const Mode index_mode{"index", false, false};
    const Mode forensics_mode{"forensics", false, false, 1, true};
    for (const auto& [geom, geo] : geometries) {
      std::printf(
          "\n%s geometry -- forensics-stream overhead (gate %.1f%%)\n\n",
          geom.c_str(), forensics_gate_pct);
      util::TablePrinter t({"FTL", "index ops/cpu-s", "forensics ops/cpu-s",
                            "overhead", "requests", "exemplars"});
      double sum = 0.0;
      for (const auto kind : kinds) {
        const auto index_cell =
            make_cell(geom, geo, kind, index_mode, budget_scale,
                      /*measure_scale=*/4.0, health_out, health_interval_s);
        auto forensics_cell =
            make_cell(geom, geo, kind, forensics_mode, budget_scale,
                      /*measure_scale=*/4.0, health_out, health_interval_s);
        // Distinct stream path: the parallel forensics cell above already
        // owns this key's artifact.
        forensics_cell.spec.forensics_path = bench::cell_journal_path(
            forensics_out, forensics_cell.key + "#duel");
        forensics_cell.spec.forensics_top = forensics_top;
        const DuelResult d =
            run_forensics_duel(index_cell.spec, forensics_cell.spec);
        if (!d.same_decisions) {
          std::fprintf(stderr,
                       "FATAL: forensics observation changed duel decisions "
                       "for %s/%s\n",
                       geom.c_str(), core::ftl_kind_name(kind).c_str());
          return 1;
        }
        const double index_ops =
            d.cpu_index > 0.0
                ? static_cast<double>(d.requests) / d.cpu_index
                : 0.0;
        const double forensics_ops =
            d.cpu_health > 0.0
                ? static_cast<double>(d.requests) / d.cpu_health
                : 0.0;
        const double overhead =
            d.cpu_index > 0.0 ? d.cpu_health / d.cpu_index - 1.0 : 0.0;
        sum += overhead;
        forensics_duels[geom][core::ftl_kind_name(kind)] = d;
        t.add_row({core::ftl_kind_name(kind),
                   util::TablePrinter::num(index_ops, 0),
                   util::TablePrinter::num(forensics_ops, 0),
                   util::TablePrinter::pct(overhead, 2),
                   std::to_string(d.forensics_requests),
                   std::to_string(d.forensics_exemplars)});
      }
      t.print(std::cout);
      const double avg = sum / 4.0;
      avg_forensics_overhead[geom] = avg;
      const bool ok = avg <= forensics_gate_pct / 100.0;
      forensics_pass &= ok;
      std::printf("avg forensics-stream overhead: %.2f%% -- %s\n",
                  avg * 100.0, ok ? "PASS" : "FAIL");
    }
  }

  if (!json_out.empty()) {
    std::ofstream os(json_out);
    if (!os) {
      std::fprintf(stderr, "failed to open %s\n", json_out.c_str());
      return 1;
    }
    telemetry::JsonWriter w(os);
    w.begin_object();
    w.kv("figure", "macro_replay");
    w.newline();
    // Host-side provenance AND the wall-clock measurements themselves are
    // non-deterministic -- this artifact documents the machine it ran on;
    // only "identical_decisions" is a stable invariant.
    w.key("run");
    w.begin_object();
    w.kv("jobs", static_cast<std::uint64_t>(runner.manifest().jobs_used));
    w.kv("host_cores",
         static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    w.kv("build_type", core::build_type());
    w.kv("build_march", core::build_march());
    w.kv("build_compiler", core::build_compiler());
    w.kv("shard_jobs", static_cast<std::uint64_t>(shard_jobs));
    w.kv("base_seed", kBaseSeed);
    w.kv("quick", quick);
    w.kv("wall_seconds", runner.manifest().wall_seconds);
    w.kv("identical_decisions", identical);
    w.kv("snapshot_every", snapshot_every);
    for (const auto& [geom, segments] : restart_segments)
      w.kv("restart_gate_segments_" + geom,
           static_cast<std::uint64_t>(segments));
    w.end_object();
    w.newline();
    w.key("geometries");
    w.begin_object();
    for (const auto& [name, geo] : geometries) {
      w.key(name);
      w.begin_object();
      w.kv("describe", geo.describe());
      w.kv("total_blocks", geo.total_blocks());
      w.kv("pages_per_block",
           static_cast<std::uint64_t>(geo.pages_per_block));
      w.kv("capacity_gib", static_cast<double>(geo.capacity_bytes()) /
                               (1024.0 * 1024.0 * 1024.0));
      w.end_object();
    }
    w.end_object();
    w.newline();
    w.key("cells");
    w.begin_object();
    for (const auto& [name, geo] : geometries) {
      (void)geo;
      w.newline();
      w.key(name);
      w.begin_object();
      for (const auto kind : kinds) {
        const auto& per_mode = grid[name][core::ftl_kind_name(kind)];
        w.newline();
        w.key(core::ftl_kind_name(kind));
        w.begin_object();
        for (const auto& mode : modes) {
          const CellOut& c = per_mode.at(mode.name);
          const ftl::FtlStats& s = c.r.raw.ftl_stats;
          w.key(mode.name);
          w.begin_object();
          w.kv("host_ops_per_sec", ops_per_sec(c));
          w.kv("host_ops_per_cpu_sec", ops_per_cpu_sec(c));
          w.kv("measure_wall_seconds", c.r.measure_wall_seconds);
          w.kv("measure_cpu_seconds", c.r.measure_cpu_seconds);
          w.kv("cell_wall_seconds", c.wall);
          w.kv("requests", c.r.raw.requests);
          w.kv("sim_host_mb_per_sec", c.r.host_mb_per_sec);
          w.kv("maintenance_share",
               maint_share(s, c.r.measure_wall_seconds));
          w.kv("retention_share",
               c.r.measure_wall_seconds > 0.0
                   ? static_cast<double>(s.maint_retention_ns) /
                         (c.r.measure_wall_seconds * 1e9)
                   : 0.0);
          w.kv("wear_level_share",
               c.r.measure_wall_seconds > 0.0
                   ? static_cast<double>(s.maint_wear_level_ns) /
                         (c.r.measure_wall_seconds * 1e9)
                   : 0.0);
          w.kv("release_idle_share",
               c.r.measure_wall_seconds > 0.0
                   ? static_cast<double>(s.maint_release_idle_ns) /
                         (c.r.measure_wall_seconds * 1e9)
                   : 0.0);
          w.kv("gc_share", gc_share(s, c.r.measure_wall_seconds));
          w.kv("maint_retention_calls", s.maint_retention_calls);
          w.kv("maint_wear_level_calls", s.maint_wear_level_calls);
          w.kv("maint_release_idle_calls", s.maint_release_idle_calls);
          w.kv("gc_invocations", c.r.gc_invocations);
          w.kv("erases", c.r.erases);
          w.kv("overall_waf", c.r.overall_waf);
          w.kv("retention_evictions", s.retention_evictions);
          w.kv("wear_level_relocations", s.wear_level_relocations);
          w.kv("chip_util", c.r.chip_util_mean);
          w.kv("channel_util", c.r.channel_util_mean);
          if (mode.shards > 1)
            w.kv("shards", static_cast<std::uint64_t>(mode.shards));
          if (mode.health) {
            w.kv("health_epochs", c.r.health_epochs);
            w.kv("health_lines", c.r.health_lines);
          }
          if (mode.forensics) {
            w.kv("forensics_requests", c.r.forensics_requests);
            w.kv("forensics_exemplars", c.r.forensics_exemplars);
            w.kv("forensics_truncated", c.r.forensics_truncated);
          }
          w.end_object();
        }
        const double scan_ops = ops_per_sec(per_mode.at("scan"));
        const double index_ops = ops_per_sec(per_mode.at("index"));
        w.kv("speedup_host_ops", scan_ops > 0.0 ? index_ops / scan_ops : 0.0);
        for (const unsigned n : shard_counts) {
          const double ops =
              ops_per_sec(per_mode.at("shard" + std::to_string(n)));
          w.kv("speedup_shard" + std::to_string(n),
               index_ops > 0.0 ? ops / index_ops : 0.0);
        }
        w.end_object();
      }
      w.end_object();
    }
    w.end_object();
    if (with_health) {
      w.newline();
      // The gate's raw duel measurements (non-deterministic, documentary).
      w.key("health_gate");
      w.begin_object();
      for (const auto& [name, per_ftl] : duels) {
        w.key(name);
        w.begin_object();
        for (const auto& [ftl, d] : per_ftl) {
          w.key(ftl);
          w.begin_object();
          w.kv("cpu_index_seconds", d.cpu_index);
          w.kv("cpu_health_seconds", d.cpu_health);
          w.kv("requests", d.requests);
          w.kv("overhead",
               d.cpu_index > 0.0 ? d.cpu_health / d.cpu_index - 1.0 : 0.0);
          w.kv("health_epochs", d.health_epochs);
          w.kv("health_lines", d.health_lines);
          w.end_object();
        }
        w.end_object();
      }
      w.end_object();
    }
    if (with_forensics) {
      w.newline();
      // The gate's raw duel measurements (non-deterministic, documentary).
      w.key("forensics_gate");
      w.begin_object();
      for (const auto& [name, per_ftl] : forensics_duels) {
        w.key(name);
        w.begin_object();
        for (const auto& [ftl, d] : per_ftl) {
          w.key(ftl);
          w.begin_object();
          w.kv("cpu_index_seconds", d.cpu_index);
          w.kv("cpu_forensics_seconds", d.cpu_health);
          w.kv("requests", d.requests);
          w.kv("overhead",
               d.cpu_index > 0.0 ? d.cpu_health / d.cpu_index - 1.0 : 0.0);
          w.kv("forensics_requests", d.forensics_requests);
          w.kv("forensics_exemplars", d.forensics_exemplars);
          w.end_object();
        }
        w.end_object();
      }
      w.end_object();
    }
    w.newline();
    w.key("summary");
    w.begin_object();
    for (const auto& [name, geo] : geometries) {
      (void)geo;
      w.kv("avg_speedup_" + name, avg_speedup[name]);
      for (const unsigned n : shard_counts)
        w.kv("avg_speedup_shard" + std::to_string(n) + "_" + name,
             avg_shard_speedup[name][n]);
    }
    if (with_health) {
      for (const auto& [name, geo] : geometries) {
        (void)geo;
        w.kv("avg_health_overhead_" + name, avg_health_overhead[name]);
      }
      w.kv("health_gate_pct", health_gate_pct);
      w.kv("health_gate_pass", health_pass);
    }
    if (with_forensics) {
      for (const auto& [name, geo] : geometries) {
        (void)geo;
        w.kv("avg_forensics_overhead_" + name, avg_forensics_overhead[name]);
      }
      w.kv("forensics_gate_pct", forensics_gate_pct);
      w.kv("forensics_gate_pass", forensics_pass);
    }
    w.end_object();
    w.end_object();
    os << "\n";
    std::printf("wrote %s\n", json_out.c_str());
  }
  if (with_health && !health_pass) {
    std::fprintf(stderr, "FATAL: health-stream overhead above %.1f%% gate\n",
                 health_gate_pct);
    return 1;
  }
  if (with_forensics && !forensics_pass) {
    std::fprintf(stderr,
                 "FATAL: forensics-stream overhead above %.1f%% gate\n",
                 forensics_gate_pct);
    return 1;
  }
  return 0;
}
