#include "cells.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench_common.h"
#include "core/parallel_runner.h"
#include "core/shard.h"
#include "core/ssd.h"
#include "sim/driver.h"
#include "telemetry/forensics.h"
#include "telemetry/health.h"
#include "telemetry/telemetry.h"
#include "workload/profiles.h"
#include "workload/splitter.h"

namespace perfbench {

using esp::core::ExperimentSpec;
using esp::core::RunResult;
namespace core = esp::core;
namespace ftl = esp::ftl;
namespace sim = esp::sim;
namespace telemetry = esp::telemetry;
namespace workload = esp::workload;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Per-workload run shape. `rate` turns --seconds into a fixed measured
// request count, so the simulated window never depends on how fast the
// host happens to be. It is about the host rate on a 4-core x86-64 VM,
// except for varmail-steady, whose simulated p50 needs about twice as many
// requests as its host rate gives to settle.
struct Shape {
  double rate;           ///< measured requests per --seconds, all reps
  std::uint64_t warmup;  ///< unmeasured requests after preconditioning
  int reps;              ///< untraced cells per --trace 0 run
};

/// macro_replay's mixed stream: small hot sync updates over a confined
/// working set, colder multi-page writes, reads and trims; think time
/// dilates the clock so retention scans fire inside the window.
/// macro_replay paces it at 400 us; the benchmark uses 800 us, because at
/// 400 us the open-loop backlog grows without bound and the simulated
/// median response lands on the driver histogram's 200 ms ceiling.
workload::SyntheticParams mixed_params(std::uint32_t subs, std::uint64_t seed) {
  workload::SyntheticParams p;
  p.sectors_per_page = subs;
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
  p.think_us = 800.0;
  p.seed = seed;
  return p;
}

/// run_experiment's default footprint: the preconditioned LBA range.
std::uint64_t default_footprint(const ExperimentSpec& spec) {
  const std::uint32_t subs = spec.ssd.geometry.subpages_per_page;
  return static_cast<std::uint64_t>(
             spec.precondition_fraction *
             static_cast<double>(spec.ssd.logical_sectors())) /
         subs * subs;
}

/// macro_replay's prod-geometry device settings.
core::SsdConfig prod_config(core::FtlKind kind) {
  core::SsdConfig ssd;
  ssd.geometry = esp::nand::prod_geometry();
  ssd.ftl = kind;
  ssd.logical_fraction = 0.79;
  ssd.buffer_sectors = 1024;
  ssd.gc_reserve_blocks = 16;
  ssd.queue_depth = 128;
  return ssd;
}

}  // namespace

WorkloadDef make_workload(const std::string& name, std::uint64_t seed,
                          double seconds, const std::string& out_dir) {
  WorkloadDef def;
  def.name = name;
  ExperimentSpec& spec = def.spec;
  Shape shape{};
  if (name == "mixed-prod") {
    // 40k warmup requests = 32 simulated seconds: four eviction ages, so
    // retention eviction runs at its steady cadence in the window.
    shape = {320000.0, 40000, 8};
    spec.ssd = prod_config(core::FtlKind::kSub);
    // Compressed maintenance clock (macro_replay): seconds, not days.
    spec.ssd.retention_scan_interval = 2 * esp::sim_time::kSecond;
    spec.ssd.retention_evict_age = 8 * esp::sim_time::kSecond;
    spec.ssd.wl_check_interval = 256;
    spec.ssd.wl_pe_threshold = 8;
    spec.workload = mixed_params(spec.ssd.geometry.subpages_per_page, seed);
    spec.workload.footprint_sectors = default_footprint(spec);
  } else if (name == "varmail-steady") {
    // WAF climbs from ~1 to ~4.6 over the first 1M requests and then
    // levels off; 1.2M warmup requests put the window past the knee
    // (the steady_state_waf gate checks the window's halves). Few, long
    // cells: the median response time drifts over a cell's window, so
    // measured requests, not cells, steady it.
    shape = {1000000.0, 1200000, 6};
    spec.ssd = esp::bench::scaled_config(core::FtlKind::kSub);
    spec.workload = workload::benchmark_profile(
        workload::Benchmark::kVarmail, default_footprint(spec), 0,
        spec.ssd.geometry.subpages_per_page, seed);
    def.observers = true;
    spec.health_path = out_dir + "/" + name + ".health.jsonl";
    spec.health_interval_us = 1 * esp::sim_time::kSecond;
    spec.forensics_path = out_dir + "/" + name + ".forensics.jsonl";
  } else if (name == "tpcc-shard4") {
    // Cells of <= 1M requests keep the window GC-free (~18 GB of host
    // writes fit the free pool of the preconditioned 64-GiB device); many
    // short cells spread the run over the host's load phases.
    shape = {2400000.0, 20000, 36};
    spec.ssd = prod_config(core::FtlKind::kCgm);
    spec.shards = 4;
    spec.shard_jobs = 0;  // hardware concurrency, capped at the shard count
    // Footprint 0: sharded_workload_params defaults it to the striped
    // space, as run_sharded_experiment does.
    spec.workload = workload::benchmark_profile(
        workload::Benchmark::kTpcc, 0, 0, spec.ssd.geometry.subpages_per_page,
        seed);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  def.reps = shape.reps;
  def.measured = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(shape.rate * seconds / shape.reps));
  // 2000 chunks per cell: 20 rank beyond the nearest-rank p99.
  def.chunk = std::max<std::uint64_t>(1, def.measured / 2000);
  spec.warmup_requests = shape.warmup;
  spec.workload.request_count = shape.warmup + def.measured;
  spec.verify = true;
  return def;
}

WorkloadDef rep_cell(const WorkloadDef& def, int rep) {
  WorkloadDef cell = def;
  if (rep > 0)
    cell.spec.workload.seed = core::stable_cell_seed(
        "perfbench/rep/" + std::to_string(rep), def.spec.workload.seed);
  return cell;
}

// ---- merge -----------------------------------------------------------------

RunResult merge_shards(std::vector<RunResult> shards,
                       const esp::nand::Geometry& geo) {
  RunResult merged;
  sim::RunMetrics& m = merged.raw;
  esp::SimTime min_start = std::numeric_limits<double>::infinity();
  esp::SimTime max_elapsed = 0.0;
  double min_wall = std::numeric_limits<double>::infinity();
  double max_wall = 0.0;
  for (const RunResult& r : shards) {
    m.requests += r.raw.requests;
    m.verify_failures += r.raw.verify_failures;
    m.io_errors += r.raw.io_errors;
    m.response_hist.merge(r.raw.response_hist);
    m.ftl_stats = ftl::stats_sum(m.ftl_stats, r.raw.ftl_stats);
    min_start = std::min(min_start, r.raw.start_us);
    max_elapsed = std::max(max_elapsed, r.raw.elapsed_us());
    merged.erases += r.erases;
    merged.measure_cpu_seconds += r.measure_cpu_seconds;
    min_wall = std::min(min_wall, r.measure_wall_start_s);
    max_wall = std::max(max_wall, r.measure_wall_end_s);
    merged.chip_util_mean += r.chip_util_mean * r.chips;
    merged.channel_util_mean += r.channel_util_mean * r.channels;
    merged.chip_util_max = std::max(merged.chip_util_max, r.chip_util_max);
    merged.chips += r.chips;
    merged.channels += r.channels;
  }
  // The shards model channel groups running side by side: the merged
  // window spans the slowest shard's, in simulated and in wall time.
  m.start_us = min_start;
  m.end_us = min_start + max_elapsed;
  m.response_p50_us = m.response_hist.percentile(0.50);
  const ftl::FtlStats& stats = m.ftl_stats;
  const double secs = esp::sim_time::to_seconds(max_elapsed);
  const double host_bytes = static_cast<double>(
      (stats.host_write_sectors + stats.host_read_sectors) *
      geo.subpage_bytes());
  merged.host_mb_per_sec =
      secs > 0.0 ? host_bytes / (1024.0 * 1024.0) / secs : 0.0;
  merged.overall_waf = stats.overall_waf(geo.page_bytes, geo.subpage_bytes());
  merged.measure_wall_seconds = max_wall - min_wall;
  merged.measure_wall_start_s = min_wall;
  merged.measure_wall_end_s = max_wall;
  if (merged.chips > 0) merged.chip_util_mean /= merged.chips;
  if (merged.channels > 0) merged.channel_util_mean /= merged.channels;
  merged.shard_results = std::move(shards);
  return merged;
}

// ---- cells -----------------------------------------------------------------

namespace {

/// Everything a sharded cell needs before its leaves run: the plan, the
/// leaf specs and each leaf's pre-split request slice.
struct ShardedCell {
  core::ShardPlan plan;
  std::vector<ExperimentSpec> leaves;
  std::vector<workload::VectorSource> sources;
  double split_s = 0.0;
};

ShardedCell split_cell(const ExperimentSpec& spec) {
  ShardedCell cell;
  cell.plan = core::make_shard_plan(spec);
  const std::uint32_t n = cell.plan.shards;
  workload::SyntheticWorkload generator(
      core::sharded_workload_params(spec, cell.plan));
  const workload::ShardSplitter splitter(
      n, cell.plan.stripe_pages, spec.ssd.geometry.subpages_per_page,
      cell.plan.shard_sectors);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<workload::ShardStream> streams = workload::partition_stream(
      generator, splitter, /*max_requests=*/0, spec.warmup_requests);
  cell.split_s = seconds_since(t0);
  cell.leaves.reserve(n);
  cell.sources.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    cell.leaves.push_back(core::make_shard_spec(spec, cell.plan, i));
    cell.leaves.back().warmup_requests = streams[i].warmup_requests;
    cell.leaves.back().workload.request_count = streams[i].requests.size();
    cell.sources.emplace_back(std::move(streams[i].requests));
  }
  return cell;
}

/// Observer sinks of one leaf, wired as run_experiment wires them. Built
/// before the Ssd so they outlive it.
struct Observers {
  std::optional<telemetry::Telemetry> tel;
  std::optional<TimedSink> sink;
  std::optional<std::ofstream> health_os, forensics_os;
  std::optional<telemetry::HealthMonitor> health;
  std::optional<telemetry::ForensicsCollector> forensics;

  void open(const ExperimentSpec& spec) {
    if (spec.health_path.empty() && spec.forensics_path.empty()) return;
    const auto& geo = spec.ssd.geometry;
    telemetry::TelemetryConfig cfg;
    cfg.trace_capacity = 256;
    cfg.op_detail = false;
    tel.emplace(cfg);
    if (!spec.health_path.empty()) {
      health_os.emplace(spec.health_path,
                        std::ios::out | std::ios::trunc | std::ios::binary);
      if (!*health_os)
        throw std::runtime_error("cannot open " + spec.health_path);
      telemetry::HealthHeader hdr;
      hdr.ftl = core::ftl_kind_name(spec.ssd.ftl);
      hdr.chips = geo.total_chips();
      hdr.blocks_per_chip = geo.blocks_per_chip;
      hdr.pages_per_block = geo.pages_per_block;
      hdr.subpages_per_page = geo.subpages_per_page;
      hdr.seed = spec.workload.seed;
      hdr.interval_us = spec.health_interval_us;
      hdr.rated_pe = spec.health_rated_pe;
      hdr.shard = spec.shard_index;
      hdr.shards = spec.shard_count;
      health.emplace(*health_os, hdr);
      tel->set_health(&*health);
    }
    if (!spec.forensics_path.empty()) {
      forensics_os.emplace(spec.forensics_path,
                           std::ios::out | std::ios::trunc | std::ios::binary);
      if (!*forensics_os)
        throw std::runtime_error("cannot open " + spec.forensics_path);
      telemetry::ForensicsHeader hdr;
      hdr.ftl = core::ftl_kind_name(spec.ssd.ftl);
      hdr.chips = geo.total_chips();
      hdr.blocks_per_chip = geo.blocks_per_chip;
      hdr.pages_per_block = geo.pages_per_block;
      hdr.subpages_per_page = geo.subpages_per_page;
      hdr.page_bytes = geo.page_bytes;
      hdr.seed = spec.workload.seed;
      hdr.shard = spec.shard_index;
      hdr.shards = spec.shard_count;
      telemetry::ForensicsCollector::Config fcfg;
      fcfg.top_k = spec.forensics_top;
      forensics.emplace(*forensics_os, hdr, fcfg);
      tel->set_forensics(&*forensics);
    }
  }

  /// Closes the streams; returns the sidecar bytes written.
  std::uint64_t finish() {
    std::uint64_t bytes = 0;
    if (health) {
      health->finish();
      health_os->flush();
      bytes += static_cast<std::uint64_t>(health_os->tellp());
    }
    if (forensics) {
      forensics->finish();
      forensics_os->flush();
      bytes += static_cast<std::uint64_t>(forensics_os->tellp());
    }
    if (tel) {
      tel->set_health(nullptr);
      tel->set_forensics(nullptr);
    }
    return bytes;
  }
};

/// Busy time of every chip / channel, for the window's utilization.
struct Busy {
  std::vector<esp::SimTime> chip, channel;
  explicit Busy(const esp::nand::NandDevice& dev) {
    const auto& geo = dev.geometry();
    for (std::uint32_t c = 0; c < geo.total_chips(); ++c)
      chip.push_back(dev.chip_busy_us(c));
    for (std::uint32_t c = 0; c < geo.channels; ++c)
      channel.push_back(dev.channel_busy_us(c));
  }
};

/// run_experiment's utilization fold: busy delta / simulated elapsed.
void utilization(const std::vector<esp::SimTime>& before,
                 const std::vector<esp::SimTime>& after, esp::SimTime elapsed,
                 double& lo, double& mean, double& hi) {
  if (elapsed <= 0.0 || before.empty()) return;
  double sum = 0.0;
  lo = 0.0;
  hi = 0.0;
  for (std::uint32_t c = 0; c < before.size(); ++c) {
    const double u = (after[c] - before[c]) / elapsed;
    sum += u;
    if (c == 0 || u < lo) lo = u;
    if (c == 0 || u > hi) hi = u;
  }
  mean = sum / static_cast<double>(before.size());
}

/// One leaf (the whole cell when unsharded), rebuilt the way
/// run_experiment runs a single-tenant, journal-free, snapshot-free spec.
void run_leaf(const ExperimentSpec& spec, std::uint64_t measured,
              std::uint64_t chunk, bool traced, LeafRun& out) {
  const auto& geo = spec.ssd.geometry;
  Observers obs;
  obs.open(spec);

  auto t0 = std::chrono::steady_clock::now();
  core::Ssd ssd(spec.ssd);
  ssd.precondition(spec.precondition_fraction);
  out.precondition_s = seconds_since(t0);
  t0 = std::chrono::steady_clock::now();
  SpanRecorder* spans = traced ? &out.spans : nullptr;
  if (obs.tel && !traced) {
    ssd.attach_telemetry(&*obs.tel);
  } else if (obs.tel) {
    // Ssd::attach_telemetry with the forwarding sink in front of the
    // device and the FTL; the driver talks to the facade directly.
    obs.sink.emplace(*obs.tel, spans);
    ssd.device().set_telemetry(&*obs.sink);
    ssd.ftl().set_telemetry(&*obs.sink);
    ssd.driver().set_telemetry(&*obs.tel);
  }

  std::optional<workload::SyntheticWorkload> generated;
  workload::RequestSource* source = spec.stream;
  if (source == nullptr) {
    generated.emplace(spec.workload);
    source = &*generated;
  }
  if (spec.warmup_requests > 0)
    ssd.driver().run(*source, /*verify=*/false, spec.warmup_requests);
  ssd.driver().close_health_epoch();
  out.warmup_s = seconds_since(t0);

  // Traced: hand the warmed-up driver state to a driver over the timed FTL.
  std::optional<TimedFtl> timed_ftl;
  std::optional<sim::Driver> timed_driver;
  sim::Driver* driver = &ssd.driver();
  if (traced) {
    timed_ftl.emplace(ssd.ftl(), spans);
    timed_driver.emplace(*timed_ftl, ssd.device(), spec.ssd.queue_depth);
    std::stringstream state;
    esp::util::StateWriter w(state);
    ssd.driver().save_state(w);
    if (obs.tel) timed_driver->set_telemetry(&*obs.tel, /*resume=*/true);
    esp::util::StateReader r(state);
    timed_driver->load_state(r);
    driver = &*timed_driver;
    if (obs.sink) obs.sink->ops = obs.sink->causes = obs.sink->blocks = {};
  }

  const ftl::FtlStats before = ssd.ftl().stats();
  const esp::nand::DeviceCounters dev_before = ssd.device().counters();
  const Busy busy_before(ssd.device());
  out.free_blocks_before = ssd.ftl().free_blocks();
  ftl::FtlStats at[3];
  ChunkClock clock(*source, 0, traced ? measured + 1 : chunk, measured / 2,
                   [&](int phase) { at[phase] = ssd.ftl().stats(); },
                   /*probe=*/!traced);
  std::optional<TimedSource> timed_source;
  if (traced) timed_source.emplace(clock, spans);
  workload::RequestSource& measured_source =
      traced ? static_cast<workload::RequestSource&>(*timed_source) : clock;

  const auto wall_start = std::chrono::steady_clock::now();
  const double cpu_start = core::thread_cpu_seconds();
  sim::RunMetrics metrics = driver->run(measured_source, spec.verify);
  const double cpu_s = core::thread_cpu_seconds() - cpu_start;
  const auto wall_end = std::chrono::steady_clock::now();
  driver->close_health_epoch();

  // The RunResult fields run_experiment derives, computed the same way.
  const ftl::FtlStats window = ftl::stats_delta(metrics.ftl_stats, before);
  metrics.ftl_stats = window;
  RunResult& r = out.result;
  const double host_bytes = static_cast<double>(
      (window.host_write_sectors + window.host_read_sectors) *
      geo.subpage_bytes());
  const double secs = esp::sim_time::to_seconds(metrics.elapsed_us());
  r.host_mb_per_sec =
      secs > 0.0 ? host_bytes / (1024.0 * 1024.0) / secs : 0.0;
  r.overall_waf = window.overall_waf(geo.page_bytes, geo.subpage_bytes());
  r.erases = metrics.erases_during_run;
  r.measure_wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  r.measure_cpu_seconds = cpu_s;
  r.measure_wall_start_s =
      std::chrono::duration<double>(wall_start.time_since_epoch()).count();
  r.measure_wall_end_s =
      std::chrono::duration<double>(wall_end.time_since_epoch()).count();
  const Busy busy_after(ssd.device());
  r.chips = geo.total_chips();
  r.channels = geo.channels;
  utilization(busy_before.chip, busy_after.chip, metrics.elapsed_us(),
              r.chip_util_min, r.chip_util_mean, r.chip_util_max);
  utilization(busy_before.channel, busy_after.channel, metrics.elapsed_us(),
              r.channel_util_min, r.channel_util_mean, r.channel_util_max);
  r.raw = metrics;

  out.chunks = clock.chunks();
  out.probe_ns = clock.probe_ns();
  out.free_blocks_after = ssd.ftl().free_blocks();
  const esp::nand::DeviceCounters& dev = ssd.device().counters();
  out.device.reads_full = dev.reads_full - dev_before.reads_full;
  out.device.reads_sub = dev.reads_sub - dev_before.reads_sub;
  out.device.progs_full = dev.progs_full - dev_before.progs_full;
  out.device.progs_sub = dev.progs_sub - dev_before.progs_sub;
  out.device.erases = dev.erases - dev_before.erases;
  if (measured >= 2) {
    out.halves[0] = ftl::stats_delta(at[1], at[0]);
    out.halves[1] = ftl::stats_delta(at[2], at[1]);
  }
  if (traced) {
    out.window_start_ns = timed_source->window_start_ns();
    out.window_end_ns = timed_source->window_end_ns();
    out.gen = timed_source->gen();
    out.write = timed_ftl->write_t;
    out.read = timed_ftl->read_t;
    out.flush = timed_ftl->flush_t;
    out.trim = timed_ftl->trim_t;
    out.tick = timed_ftl->tick_t;
    out.ftl_ns = timed_ftl->total_ns();
    if (obs.sink) {
      out.sink_ops = obs.sink->ops;
      out.sink_causes = obs.sink->causes;
      out.sink_blocks = obs.sink->blocks;
    }
  }
  out.sidecar_bytes = obs.finish();
  // A traced Ssd never saw the facade, so sever the registry's references
  // into device/FTL state here rather than in the Ssd's destructor.
  if (obs.tel && traced) obs.tel->registry().materialize();
}

/// Span budget of a traced cell, shared by its leaves.
constexpr std::size_t kSpanCapacity = 1u << 18;

/// Samples every stride-th request so the budget covers the whole window:
/// about 6 spans per request, 12 with the telemetry sink's spans.
SpanRecorder leaf_recorder(std::uint64_t measured, std::uint32_t leaves,
                           bool observers) {
  const std::size_t capacity = kSpanCapacity / leaves;
  const std::uint64_t per_request = observers ? 12 : 6;
  return SpanRecorder(
      capacity, std::max<std::uint64_t>(1, measured * per_request / capacity));
}

double steady_s(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

}  // namespace

CellRun run_cell(const WorkloadDef& def, bool traced) {
  const ExperimentSpec& spec = def.spec;
  const auto& geo = spec.ssd.geometry;
  CellRun out;
  const auto cell_start = std::chrono::steady_clock::now();

  if (spec.shards <= 1) {
    out.leaves.resize(1);
    if (traced)
      out.leaves[0].spans = leaf_recorder(def.measured, 1, def.observers);
    run_leaf(spec, def.measured, def.chunk, traced, out.leaves[0]);
    out.result = out.leaves[0].result;
  } else {
    SpanRecorder& cell = out.cell_spans;
    cell.begin_request(0, now_ns());
    std::uint32_t span = cell.open("core.split", now_ns());
    ShardedCell sharded = split_cell(spec);
    cell.close(span, now_ns());
    out.split_s = sharded.split_s;
    const std::uint32_t n = sharded.plan.shards;
    out.leaves.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      sharded.leaves[i].stream = &sharded.sources[i];
      if (traced)
        out.leaves[i].spans = leaf_recorder(
            sharded.sources[i].size() - sharded.leaves[i].warmup_requests, n,
            def.observers);
    }
    span = cell.open("core.leaves", now_ns());
    core::run_tasks(spec.shard_jobs, n, [&](std::size_t i) {
      const ExperimentSpec& leaf = sharded.leaves[i];
      run_leaf(leaf, leaf.workload.request_count - leaf.warmup_requests,
               def.chunk, traced, out.leaves[i]);
    });
    cell.close(span, now_ns());
    span = cell.open("core.join", now_ns());
    std::vector<RunResult> results;
    for (const LeafRun& leaf : out.leaves) results.push_back(leaf.result);
    out.result = merge_shards(std::move(results), geo);
    cell.close(span, now_ns());
    cell.end_request(now_ns());
  }
  out.setup_s = out.result.measure_wall_start_s - steady_s(cell_start);
  return out;
}

void write_spans(const CellRun& run, const std::string& path) {
  std::ofstream os(path, std::ios::out | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write spans: " + path);
  // Every span is timed from the cell's first one, so leaves running side
  // by side share one timeline.
  std::vector<const SpanRecorder*> recorders = {&run.cell_spans};
  for (const LeafRun& leaf : run.leaves) recorders.push_back(&leaf.spans);
  std::uint64_t epoch = std::numeric_limits<std::uint64_t>::max();
  for (const SpanRecorder* r : recorders)
    if (!r->spans().empty())
      epoch = std::min(epoch, r->spans().front().start_ns);
  run.cell_spans.write_jsonl(os, epoch);
  // One header line per leaf -- its set-up phases and measured window --
  // followed by the leaf's own spans.
  for (std::size_t i = 0; i < run.leaves.size(); ++i) {
    const LeafRun& leaf = run.leaves[i];
    os << "{\"leaf\":" << i << ",\"precondition_s\":" << leaf.precondition_s
       << ",\"warmup_s\":" << leaf.warmup_s
       << ",\"window_s\":" << leaf.result.measure_wall_seconds
       << ",\"spans\":" << leaf.spans.spans().size()
       << ",\"dropped\":" << leaf.spans.dropped() << "}\n";
    leaf.spans.write_jsonl(os, epoch);
  }
}

}  // namespace perfbench
