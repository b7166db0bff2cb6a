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
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/build_info.h"
#include "core/observers.h"
#include "core/parallel_runner.h"
#include "core/shard.h"
#include "sim/driver.h"
#include "telemetry/json.h"
#include "telemetry/telemetry.h"
#include "util/table_printer.h"
#include "workload/splitter.h"

namespace {

using namespace esp;

constexpr std::uint64_t kBaseSeed = 2017;

/// Result of one paired observer duel (run_observer_duel).
struct DuelResult {
  double cpu_off = 0.0;  ///< thread-CPU seconds, observer-off side (A)
  double cpu_on = 0.0;   ///< thread-CPU seconds, observer-on side (B)
  std::uint64_t requests = 0;
  std::array<std::uint64_t, 2> counters{};  ///< the gate's first two
  bool same_decisions = true;

  double overhead() const {
    return cpu_off > 0.0 ? cpu_on / cpu_off - 1.0 : 0.0;
  }
};

/// One observer-overhead gate (--health-gate, --forensics-gate): the
/// observer gets a mode cell in the parallel grid plus, per (geometry,
/// FTL), a paired duel against a baseline without it.
struct Gate {
  std::string name;  ///< flag, mode and JSON-key stem
  std::string core::ExperimentSpec::*path;  ///< the observer's sidecar
  /// The duel's side A. A bare Ssd prices the facade together with the
  /// observer (health: the always-on stream). The lean facade prices only
  /// the marginal cost of switching the observer on (forensics: the facade
  /// itself is priced by the health gate).
  bool facade_baseline = false;
  /// RunResult counters a mode cell reports; the first two also land in
  /// the duel table and the gate JSON.
  std::vector<std::pair<std::string, std::uint64_t core::RunResult::*>>
      counters;
  std::string out;    ///< sidecar path stem (--<name>-out)
  double pct = -1.0;  ///< bound in percent (--<name>-gate); < 0 = off

  std::map<std::string, std::map<std::string, DuelResult>> duels{};
  std::map<std::string, double> avg_overhead{};
  bool pass = true;

  bool on() const { return pct >= 0.0; }
};

struct Mode {
  std::string name;
  bool reference_scan = false;
  /// > 1: run the cell as N shared-nothing shard simulations (core/shard.h)
  /// with index maintenance; the merged result is deterministic and the
  /// wall clock is the fork-to-join measure window.
  unsigned shards = 1;
  const Gate* gate = nullptr;  ///< index maintenance + this observer on
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

/// Share of the cell's measured wall time spent in `ns` of host work.
double wall_share(const CellOut& c, std::uint64_t ns) {
  const double wall = c.r.measure_wall_seconds;
  return wall > 0.0 ? static_cast<double>(ns) / (wall * 1e9) : 0.0;
}

double maint_share(const CellOut& c) {
  const ftl::FtlStats& s = c.r.raw.ftl_stats;
  return wall_share(c, s.maint_retention_ns + s.maint_wear_level_ns +
                           s.maint_release_idle_ns);
}

core::ExperimentCell make_cell(const std::string& geom_name,
                               const nand::Geometry& geo, core::FtlKind kind,
                               const Mode& mode, double budget_scale,
                               double measure_scale,
                               double health_interval_s,
                               std::uint32_t forensics_top) {
  core::ExperimentCell cell;
  cell.key = "replay/" + geom_name + "/" + core::ftl_kind_name(kind) + "/" +
             mode.name;
  if (mode.gate)
    cell.spec.*mode.gate->path =
        core::cell_sidecar_path(mode.gate->out, cell.key);
  cell.spec.health_interval_us = health_interval_s * sim_time::kSecond;
  cell.spec.forensics_top = forensics_top;
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
  auto params = bench::mixed_workload(
      geo.subpages_per_page,
      core::stable_cell_seed("replay/" + geom_name, kBaseSeed),
      /*think_us=*/400.0);  // time dilation: retention fires mid-replay
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

/// The simulated FTL decisions two runs' stats record (maint_* are
/// host-side timings and stay out).
bool same_stats(const ftl::FtlStats& sa, const ftl::FtlStats& sb) {
  return sa.host_write_sectors == sb.host_write_sectors &&
         sa.flash_prog_full == sb.flash_prog_full &&
         sa.flash_prog_sub == sb.flash_prog_sub &&
         sa.gc_copy_sectors == sb.gc_copy_sectors &&
         sa.gc_invocations == sb.gc_invocations &&
         sa.rmw_ops == sb.rmw_ops &&
         sa.retention_evictions == sb.retention_evictions &&
         sa.wear_level_relocations == sb.wear_level_relocations;
}

/// Simulated-side outcomes must be BIT-identical between scan and index
/// maintenance -- the tentpole's equivalence contract. Compares everything
/// deterministic in the result (wall times are host-side).
bool same_decisions(const core::RunResult& a, const core::RunResult& b) {
  return a.erases == b.erases && a.verify_failures == b.verify_failures &&
         a.overall_waf == b.overall_waf &&
         a.small_request_waf == b.small_request_waf &&
         a.raw.requests == b.raw.requests && a.raw.end_us == b.raw.end_us &&
         same_stats(a.raw.ftl_stats, b.raw.ftl_stats);
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

/// An overhead gate's measurement: two identical simulators -- `gate`'s
/// observer off (A) and on (B) -- stepped on ONE thread in alternating
/// 1024-request chunks, accumulating each side's thread-CPU time. Side B's
/// observer is built by core::ObserverSet exactly as run_experiment builds
/// it; side A is the gate's baseline.
///
/// Why not compare two whole cells? Per-cell CPU time on a shared,
/// frequency-scaled host wanders by far more than the 3% gate threshold
/// (the thread CPU clock counts seconds, not cycles, so it cannot see
/// DVFS), and no estimator over serially-run cells cancels drift on that
/// scale. Chunk interleaving makes both sides sample the same machine
/// state at millisecond granularity; the chunk order also flips every
/// iteration (A B | B A | ...) so linear drift cancels within each pair.
/// The ratio of accumulated CPU times then isolates what the gate is
/// actually after: the observer's own per-op cost.
DuelResult run_observer_duel(const Gate& gate,
                             const core::ExperimentSpec& spec) {
  // Facades and observers outlive the Ssds (the Ssd destructor
  // materializes the telemetry registry).
  core::ObserverSet observers(spec);
  std::optional<telemetry::Telemetry> tel_a;
  if (gate.facade_baseline) tel_a.emplace(core::ObserverSet::lean_config());

  core::Ssd a(spec.ssd);
  core::Ssd b(spec.ssd);
  a.precondition(spec.precondition_fraction);
  b.precondition(spec.precondition_fraction);
  if (tel_a) a.attach_telemetry(&*tel_a);
  b.attach_telemetry(observers.telemetry());  // health epoch 0: baseline

  workload::SyntheticParams params = spec.workload;
  if (params.footprint_sectors == 0)
    params.footprint_sectors =
        core::default_footprint(spec, a.logical_sectors());
  workload::SyntheticWorkload sa(params);
  workload::SyntheticWorkload sb(params);

  if (spec.warmup_requests > 0) {
    a.driver().run(sa, /*verify=*/false, spec.warmup_requests);
    b.driver().run(sb, /*verify=*/false, spec.warmup_requests);
  }
  // The end-of-warmup health epoch lands outside the timed chunks.
  b.driver().close_health_epoch();

  DuelResult out;
  std::uint64_t failures_a = 0, failures_b = 0;
  SimTime end_a = 0.0, end_b = 0.0;
  std::uint64_t remaining =
      spec.workload.request_count > spec.warmup_requests
          ? spec.workload.request_count - spec.warmup_requests
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
      step(b, sb, out.cpu_on, failures_b, end_b);
      out.requests += step(a, sa, out.cpu_off, failures_a, end_a);
    } else {
      out.requests += step(a, sa, out.cpu_off, failures_a, end_a);
      step(b, sb, out.cpu_on, failures_b, end_b);
    }
    flip = !flip;
    remaining -= n;
  }

  // The end-of-run epoch and the trailers are teardown I/O, outside the
  // timed chunks -- the same contract run_experiment applies to its
  // wall/CPU window.
  b.driver().close_health_epoch();
  core::RunResult stream;
  observers.finish(stream);
  for (std::size_t k = 0; k < 2; ++k)
    out.counters[k] = stream.*gate.counters[k].second;

  // Both sides must have replayed to the same simulated end state: the
  // observer is passive even when polled mid-stream.
  out.same_decisions =
      end_a == end_b && failures_a == 0 && failures_b == 0 &&
      same_stats(a.ftl().stats(), b.ftl().stats()) &&
      a.device().counters().erases == b.device().counters().erases;
  return out;
}

using Geometries = std::vector<std::pair<std::string, nand::Geometry>>;

constexpr core::FtlKind kKinds[] = {core::FtlKind::kCgm, core::FtlKind::kFgm,
                                    core::FtlKind::kSub,
                                    core::FtlKind::kSectorLog};

/// One overhead gate: a paired in-process duel per (geometry, FTL) (see
/// run_observer_duel), compared in thread-CPU time so neither other
/// tenants of the machine nor frequency scaling can move the ratio.
/// Overheads are averaged over the four FTLs. The duel gets a 4x measure
/// budget: a 3% ratio needs a few hundred milliseconds of CPU per side to
/// be readable at all. Returns false on any decision divergence.
bool run_gate(Gate& gate, const Geometries& geometries, double budget_scale,
              double health_interval_s, std::uint32_t forensics_top) {
  const Mode mode{gate.name, false, 1, &gate};
  for (const auto& [geom, geo] : geometries) {
    std::printf("\n%s geometry -- %s-stream overhead (gate %.1f%%)\n\n",
                geom.c_str(), gate.name.c_str(), gate.pct);
    std::vector<std::string> header = {"FTL", "index ops/cpu-s",
                                       gate.name + " ops/cpu-s", "overhead"};
    for (std::size_t k = 0; k < 2; ++k)
      header.push_back(gate.counters[k].first.substr(gate.name.size() + 1));
    util::TablePrinter t(header);
    double sum = 0.0;
    for (const auto kind : kKinds) {
      auto cell = make_cell(geom, geo, kind, mode, budget_scale,
                            /*measure_scale=*/4.0, health_interval_s,
                            forensics_top);
      // Distinct stream path: the parallel mode cell already owns this
      // key's artifact.
      cell.spec.*gate.path = core::cell_sidecar_path(gate.out,
                                                     cell.key + "#duel");
      const DuelResult d = run_observer_duel(gate, cell.spec);
      const std::string ftl = core::ftl_kind_name(kind);
      if (!d.same_decisions) {
        std::fprintf(stderr,
                     "FATAL: %s observation changed duel decisions for "
                     "%s/%s\n",
                     gate.name.c_str(), geom.c_str(), ftl.c_str());
        return false;
      }
      const auto ops = [&d](double cpu) {
        return cpu > 0.0 ? static_cast<double>(d.requests) / cpu : 0.0;
      };
      sum += d.overhead();
      gate.duels[geom][ftl] = d;
      t.add_row({ftl, util::TablePrinter::num(ops(d.cpu_off), 0),
                 util::TablePrinter::num(ops(d.cpu_on), 0),
                 util::TablePrinter::pct(d.overhead(), 2),
                 std::to_string(d.counters[0]),
                 std::to_string(d.counters[1])});
    }
    t.print(std::cout);
    const double avg = sum / 4.0;
    gate.avg_overhead[geom] = avg;
    const bool ok = avg <= gate.pct / 100.0;
    gate.pass &= ok;
    std::printf("avg %s-stream overhead: %.2f%% -- %s\n", gate.name.c_str(),
                avg * 100.0, ok ? "PASS" : "FAIL");
  }
  return true;
}

/// The gate's raw duel measurements (non-deterministic, documentary).
void write_gate_json(telemetry::JsonWriter& w, const Gate& gate) {
  w.newline();
  w.key(gate.name + "_gate");
  w.begin_object();
  for (const auto& [geom, per_ftl] : gate.duels) {
    w.key(geom);
    w.begin_object();
    for (const auto& [ftl, d] : per_ftl) {
      w.key(ftl);
      w.begin_object();
      w.kv("cpu_index_seconds", d.cpu_off);
      w.kv("cpu_" + gate.name + "_seconds", d.cpu_on);
      w.kv("requests", d.requests);
      w.kv("overhead", d.overhead());
      for (std::size_t k = 0; k < 2; ++k)
        w.kv(gate.counters[k].first, d.counters[k]);
      w.end_object();
    }
    w.end_object();
  }
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  std::string geometry_filter = "both";
  unsigned jobs = 0;
  bool quick = false;
  std::vector<Gate> gates = {
      {.name = "health",
       .path = &core::ExperimentSpec::health_path,
       .counters = {{"health_epochs", &core::RunResult::health_epochs},
                    {"health_lines", &core::RunResult::health_lines}},
       .out = "replay_health.jsonl"},
      {.name = "forensics",
       .path = &core::ExperimentSpec::forensics_path,
       .facade_baseline = true,
       .counters =
           {{"forensics_requests", &core::RunResult::forensics_requests},
            {"forensics_exemplars", &core::RunResult::forensics_exemplars},
            {"forensics_truncated", &core::RunResult::forensics_truncated}},
       .out = "replay_forensics.jsonl"},
  };
  // Endpoint epochs by default: the gate bounds the ALWAYS-ON per-op tax
  // of the health stream. Snapshot cost is a separate, user-chosen knob --
  // O(blocks) per epoch at whatever cadence --health-interval picks -- and
  // this bench's deliberately compressed clock (400 us think time) would
  // make any fixed simulated-seconds cadence absurdly aggressive: 1 sim-s
  // is ~2500 requests here, vs minutes of real traffic on a device.
  double health_interval_s = 0.0;
  std::uint32_t forensics_top = 16;
  std::vector<unsigned> shard_counts;  // --shards 4,8: extra sharded modes
  unsigned shard_jobs = 0;             // 0 = hardware concurrency
  std::uint64_t snapshot_every = 0;    // --snapshot-every N: restart gate
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // --<gate>-gate PCT / --<gate>-out PATH for each gate.
    const auto gate_flag = [&](const char* suffix) -> Gate* {
      for (Gate& gate : gates)
        if (i + 1 < argc && arg == "--" + gate.name + suffix) return &gate;
      return nullptr;
    };
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
    } else if (Gate* gate = gate_flag("-gate")) {
      gate->pct = std::atof(argv[++i]);
    } else if (Gate* gate = gate_flag("-out")) {
      gate->out = argv[++i];
    } else if (arg == "--health-interval" && i + 1 < argc) {
      health_interval_s = std::atof(argv[++i]);
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
                   "          [--forensics-gate PCT] [--forensics-out PATH] "
                   "[--forensics-top N]\n"
                   "          [--snapshot-every N]\n"
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

  std::vector<Mode> modes = {{"scan", true}, {"index", false}};
  for (const unsigned n : shard_counts)
    modes.push_back({"shard" + std::to_string(n), false, n});
  for (const Gate& gate : gates)
    if (gate.on()) modes.push_back({gate.name, false, 1, &gate});
  std::vector<core::ExperimentCell> cells;
  for (const auto& [name, geo] : geometries)
    for (const auto kind : kKinds)
      for (const auto& mode : modes) {
        cells.push_back(make_cell(name, geo, kind, mode, budget_scale,
                                  /*measure_scale=*/1.0, health_interval_s,
                                  forensics_top));
        cells.back().spec.shard_jobs = shard_jobs;
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
      for (const auto kind : kKinds)
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
      // An observer cell must make the same simulated decisions as the
      // observer-off index cell: observers are passive.
      for (const Gate& gate : gates)
        if (gate.on() && !same_decisions(per_mode.at(gate.name).r, index)) {
          std::fprintf(stderr,
                       "FATAL: %s observation changed decisions for %s/%s\n",
                       gate.name.c_str(), geom.c_str(), ftl.c_str());
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
      const Mode gate_mode{"shard" + std::to_string(n) + "-gate", false, n};
      auto gate = make_cell(geom, geo, core::FtlKind::kSub, gate_mode,
                            budget_scale, /*measure_scale=*/0.25,
                            health_interval_s, forensics_top);
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
      const Mode gate_mode{"restart-gate", false};
      const auto cell = make_cell(geom, geo, core::FtlKind::kSub, gate_mode,
                                  budget_scale, /*measure_scale=*/0.25,
                                  health_interval_s, forensics_top);

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
    for (const auto kind : kKinds) {
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
                 util::TablePrinter::pct(maint_share(scan), 1),
                 util::TablePrinter::pct(maint_share(index), 1),
                 util::TablePrinter::pct(
                     wall_share(index, index.r.raw.ftl_stats.maint_gc_ns), 1)});
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
      for (const auto kind : kKinds) {
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

  for (Gate& gate : gates)
    if (gate.on() &&
        !run_gate(gate, geometries, budget_scale, health_interval_s,
                  forensics_top))
      return 1;

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
    core::write_build_provenance(w);
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
      for (const auto kind : kKinds) {
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
          w.kv("maintenance_share", maint_share(c));
          w.kv("retention_share", wall_share(c, s.maint_retention_ns));
          w.kv("wear_level_share", wall_share(c, s.maint_wear_level_ns));
          w.kv("release_idle_share", wall_share(c, s.maint_release_idle_ns));
          w.kv("gc_share", wall_share(c, s.maint_gc_ns));
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
          if (mode.gate)
            for (const auto& [key, counter] : mode.gate->counters)
              w.kv(key, c.r.*counter);
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
    for (const Gate& gate : gates)
      if (gate.on()) write_gate_json(w, gate);
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
    for (const Gate& gate : gates) {
      if (!gate.on()) continue;
      for (const auto& [name, avg] : gate.avg_overhead)
        w.kv("avg_" + gate.name + "_overhead_" + name, avg);
      w.kv(gate.name + "_gate_pct", gate.pct);
      w.kv(gate.name + "_gate_pass", gate.pass);
    }
    w.end_object();
    w.end_object();
    os << "\n";
    std::printf("wrote %s\n", json_out.c_str());
  }
  for (const Gate& gate : gates)
    if (gate.on() && !gate.pass) {
      std::fprintf(stderr, "FATAL: %s-stream overhead above %.1f%% gate\n",
                   gate.name.c_str(), gate.pct);
      return 1;
    }
  return 0;
}
