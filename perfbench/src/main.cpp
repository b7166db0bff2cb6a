// perfbench: the repository benchmark. One workload per process:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//
// --trace 0 runs the workload's cells untraced and reports the end-to-end
// metrics; --trace 1 runs cell 0 through core::run_experiment, untraced and
// traced, and reports the per-layer metrics.
// Either way the last stdout line is one JSON report; the exit code is 0
// only when every correctness gate passed. See README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cells.h"
#include "core/build_info.h"
#include "core/experiment.h"
#include "digest.h"

namespace {

using namespace perfbench;
using esp::core::RunResult;

// ---- JSON output ------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Insertion-ordered JSON object of pre-rendered values.
struct Obj {
  std::vector<std::pair<std::string, std::string>> fields;
  Obj& raw(const std::string& k, std::string v) {
    fields.emplace_back(k, std::move(v));
    return *this;
  }
  Obj& n(const std::string& k, double v) { return raw(k, num(v)); }
  Obj& s(const std::string& k, const std::string& v) {
    return raw(k, quote(v));
  }
  Obj& b(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out += ',';
      out += quote(fields[i].first);
      out += ':';
      out += fields[i].second;
    }
    return out + "}";
  }
};

/// Metric object: {"name": {"value": v, "unit": u}, ...}.
struct Metrics {
  Obj obj;
  void add(const std::string& name, double value, const std::string& unit) {
    obj.raw(name, Obj().n("value", value).s("unit", unit).str());
  }
};

struct Gates {
  Obj obj;
  bool all = true;
  void check(const std::string& name, bool ok) {
    obj.b(name, ok);
    if (!ok) {
      all = false;
      std::fprintf(stderr, "perfbench: gate FAILED: %s\n", name.c_str());
    }
  }
};

// ---- helpers ----------------------------------------------------------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// A simulated percentile whose rank falls in the histogram's last
/// bucket is a clamp, not a measurement.
bool clamped(const esp::util::Histogram& h, double q) {
  const std::uint64_t last = h.bucket(h.bucket_count() - 1);
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(h.total())));
  return last > 0 && rank > h.total() - last;
}

std::string percentile_or_clamped(const esp::util::Histogram& h, double q) {
  return clamped(h, q) ? quote("clamped") : num(h.percentile(q));
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t failed_ops(const RunResult& r) {
  return r.raw.verify_failures + r.raw.io_errors;
}

/// Shard-merge reconciliation: top-level counters equal the sums over
/// shard_results.
bool merged_equals_sum(const RunResult& m) {
  std::uint64_t requests = 0, erases = 0, gc = 0, rmw = 0, verify = 0;
  std::uint64_t host = 0, full = 0, sub = 0;
  for (const RunResult& r : m.shard_results) {
    requests += r.raw.requests;
    erases += r.erases;
    gc += r.gc_invocations;
    rmw += r.rmw_ops;
    verify += r.verify_failures;
    host += r.raw.ftl_stats.host_write_sectors;
    full += r.raw.ftl_stats.flash_prog_full;
    sub += r.raw.ftl_stats.flash_prog_sub;
  }
  return !m.shard_results.empty() && m.raw.requests == requests &&
         m.erases == erases && m.gc_invocations == gc && m.rmw_ops == rmw &&
         m.verify_failures == verify &&
         m.raw.ftl_stats.host_write_sectors == host &&
         m.raw.ftl_stats.flash_prog_full == full &&
         m.raw.ftl_stats.flash_prog_sub == sub;
}

/// The workload shows the behaviour it was chosen for.
bool behaves(const WorkloadDef& def, const RunResult& r) {
  const esp::ftl::FtlStats& s = r.raw.ftl_stats;
  if (def.name == "mixed-prod")
    return s.gc_invocations == 0 && s.retention_evictions > 0;
  if (def.name == "varmail-steady")
    return s.gc_invocations > 0 && s.retention_evictions == 0;
  return r.shard_results.size() == 4 && s.rmw_ops > 0;
}

std::string provenance() {
  return Obj()
      .n("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .s("build_type", PERFBENCH_BUILD_TYPE)
      .s("march", PERFBENCH_MARCH)
      .s("compiler", PERFBENCH_COMPILER)
      .s("git_describe", esp::core::build_git_describe())
      .str();
}

/// Erase cycles a cell's window consumed: erases done plus erased blocks
/// drawn from the free pool (each must be erased again before reuse).
/// Equals the erase count in GC steady state and stays measurable in
/// GC-free windows, where the erase count is 0.
double cell_pe_cycles(const CellRun& c) {
  double cycles = 0.0;
  for (const LeafRun& l : c.leaves)
    cycles += static_cast<double>(l.device.erases) +
              static_cast<double>(l.free_blocks_before) -
              static_cast<double>(l.free_blocks_after);
  return cycles;
}

/// Host-side figures of one untraced cell. Times leave the SpeedProbe
/// passes out and are scaled to the reference host: the chunk p99 chunk by
/// chunk, by the passes around each chunk (probe_scaled), the others by
/// SpeedProbe::kReferenceNs / the cell's median pass (README.md,
/// "Host-speed probe").
struct HostSample {
  double probe_ns = 0.0;       ///< median SpeedProbe pass of the window
  double scale = 1.0;          ///< kReferenceNs / probe_ns
  double raw_req_per_s = 0.0;  ///< unscaled
  double setup_s = 0.0;
  double req_per_s = 0.0;
  double cpu_us_per_req = 0.0;
  ChunkStats chunks;
  std::uint64_t digest = 0;
};

HostSample host_sample(const WorkloadDef& def, const CellRun& c) {
  HostSample h;
  std::vector<Chunk> chunks, scaled_chunks;
  std::vector<double> probes;
  double probe_s = 0.0;
  const LeafRun* last = &c.leaves.front();  // the leaf that ends the window
  for (const LeafRun& l : c.leaves) {
    const std::vector<Chunk> scaled = probe_scaled(l.chunks);
    scaled_chunks.insert(scaled_chunks.end(), scaled.begin(), scaled.end());
    chunks.insert(chunks.end(), l.chunks.begin(), l.chunks.end());
    for (const Chunk& k : l.chunks)
      if (k.probe_ns > 0) probes.push_back(static_cast<double>(k.probe_ns));
    probe_s += static_cast<double>(l.probe_ns) * 1e-9;
    if (l.result.measure_wall_end_s > last->result.measure_wall_end_s)
      last = &l;
  }
  const double requests = static_cast<double>(c.result.raw.requests);
  const double window_s = c.result.measure_wall_seconds -
                          static_cast<double>(last->probe_ns) * 1e-9;
  if (!probes.empty()) {
    h.probe_ns = median(probes);
    h.scale = SpeedProbe::kReferenceNs / h.probe_ns;
  }
  h.raw_req_per_s = ratio(requests, window_s);
  h.setup_s = c.setup_s * h.scale;
  h.req_per_s = h.raw_req_per_s / h.scale;
  // A probe pass is CPU work on the thread that timed it.
  h.cpu_us_per_req =
      ratio((c.result.measure_cpu_seconds - probe_s) * 1e6 * h.scale,
            requests);
  // The median chunk is scaled like the cell's other times; the tail chunk
  // by chunk, so a burst of host slowness does not set it.
  h.chunks = chunk_stats(scaled_chunks, def.chunk);
  h.chunks.p50_ns = chunk_stats(chunks, def.chunk).p50_ns * h.scale;
  h.digest = sim_digest(c.result);
  return h;
}

/// Simulated figures pooled over a run's cells: one window made of every
/// cell's window (counters and histograms add up, simulated time too).
struct SimPool {
  esp::util::Histogram resp{0.0, 1.0, 1};  ///< the driver's shape, from add()
  esp::ftl::FtlStats stats;
  double sim_s = 0.0;
  double pe_cycles = 0.0;
  std::uint64_t requests = 0, failed = 0, erases = 0;
  esp::ftl::FtlStats halves[2];  ///< every window's first / second half

  void add(const CellRun& c) {
    const RunResult& r = c.result;
    if (requests == 0)
      resp = r.raw.response_hist;
    else if (!resp.merge(r.raw.response_hist))
      throw std::logic_error("response histograms differ in shape");
    stats = esp::ftl::stats_sum(stats, r.raw.ftl_stats);
    sim_s += esp::sim_time::to_seconds(r.raw.elapsed_us());
    pe_cycles += cell_pe_cycles(c);
    requests += r.raw.requests;
    failed += failed_ops(r);
    erases += r.erases;
    for (const LeafRun& l : c.leaves)
      for (int h = 0; h < 2; ++h)
        halves[h] = esp::ftl::stats_sum(halves[h], l.halves[h]);
  }
  double half_waf(int h, const esp::nand::Geometry& geo) const {
    return halves[h].overall_waf(geo.page_bytes, geo.subpage_bytes());
  }
  /// |WAF of the first halves - WAF of the second halves| / their mean.
  double half_gap(const esp::nand::Geometry& geo) const {
    const double a = half_waf(0, geo), b = half_waf(1, geo);
    return ratio(std::fabs(a - b), 0.5 * (a + b));
  }

  double host_write_gib(const esp::nand::Geometry& geo) const {
    return static_cast<double>(stats.host_write_sectors) *
           static_cast<double>(geo.subpage_bytes()) /
           (1024.0 * 1024.0 * 1024.0);
  }
  double miss_frac() const {
    return ratio(static_cast<double>(resp.overflow()),
                 static_cast<double>(resp.total()));
  }
};

double median_of(const std::vector<HostSample>& hs,
                 const std::function<double(const HostSample&)>& field) {
  std::vector<double> v;
  for (const HostSample& h : hs) v.push_back(field(h));
  return median(v);
}

void add_end_to_end(Metrics& m, const WorkloadDef& def, const SimPool& p,
                    const std::vector<HostSample>& hs, double rss_mib) {
  const auto& geo = def.spec.ssd.geometry;
  const double host_mib =
      static_cast<double>((p.stats.host_write_sectors +
                           p.stats.host_read_sectors) *
                          geo.subpage_bytes()) /
      (1024.0 * 1024.0);
  m.add("setup_s", median_of(hs, [](auto& h) { return h.setup_s; }), "s");
  m.add("host_req_per_s", median_of(hs, [](auto& h) { return h.req_per_s; }),
        "req/s");
  m.add("cpu_us_per_req",
        median_of(hs, [](auto& h) { return h.cpu_us_per_req; }), "us");
  m.add("host_ns_per_req_p50",
        median_of(hs, [](auto& h) { return h.chunks.p50_ns; }), "ns");
  m.add("host_ns_per_req_p99",
        median_of(hs, [](auto& h) { return h.chunks.p99_ns; }), "ns");
  m.add("peak_rss_mib", rss_mib, "MiB");
  m.add("sim_mb_per_s", ratio(host_mib, p.sim_s), "MiB/s");
  m.add("sim_resp_p50_us", p.resp.percentile(0.50), "us");
  m.add("sim_slo_met_frac", 1.0 - p.miss_frac(), "ratio");
  m.add("waf", p.stats.overall_waf(geo.page_bytes, geo.subpage_bytes()),
        "ratio");
  m.add("pe_cycles_per_host_gib", ratio(p.pe_cycles, p.host_write_gib(geo)),
        "1/GiB");
  m.add("ok_op_frac",
        1.0 - ratio(static_cast<double>(p.failed),
                    static_cast<double>(p.requests)),
        "ratio");
}

/// Simulated-side facts behind the end-to-end metrics, incl. honest
/// tails: a percentile in the histogram's last bucket reads "clamped".
std::string sim_info(const WorkloadDef& def, const SimPool& p) {
  const esp::ftl::FtlStats& s = p.stats;
  return Obj()
      .n("requests", static_cast<double>(p.requests))
      .n("requests_per_cell", static_cast<double>(def.measured))
      .n("warmup_requests", static_cast<double>(def.spec.warmup_requests))
      .n("cells", def.reps)
      .raw("sim_resp_p50_us", percentile_or_clamped(p.resp, 0.50))
      .raw("sim_resp_p99_us", percentile_or_clamped(p.resp, 0.99))
      .raw("sim_resp_p999_us", percentile_or_clamped(p.resp, 0.999))
      .n("sim_slo_miss_frac", p.miss_frac())
      .n("slo_us", p.resp.hi())
      .n("erases_per_host_gib",
         ratio(static_cast<double>(p.erases),
               p.host_write_gib(def.spec.ssd.geometry)))
      .n("gc_invocations", static_cast<double>(s.gc_invocations))
      .n("retention_evictions", static_cast<double>(s.retention_evictions))
      .n("rmw_ops", static_cast<double>(s.rmw_ops))
      .n("erases", static_cast<double>(p.erases))
      .n("failed_ops", static_cast<double>(p.failed))
      .n("waf_first_half", p.half_waf(0, def.spec.ssd.geometry))
      .n("waf_second_half", p.half_waf(1, def.spec.ssd.geometry))
      .str();
}

/// Layer buckets of a traced cell, summed over leaves: workload source,
/// driver self time, FTL self time and the FTL's maintenance timers.
struct Buckets {
  double window_ns = 0.0;    ///< Σ leaf windows (first pull -> exhaustion)
  double run_wall_ns = 0.0;  ///< Σ leaf Driver::run wall
  double gen_ns = 0.0, driver_self_ns = 0.0, ftl_self_ns = 0.0,
         maint_ns = 0.0;
  double sum() const {
    return gen_ns + driver_self_ns + ftl_self_ns + maint_ns;
  }
  bool nonnegative() const {
    return driver_self_ns >= 0.0 && ftl_self_ns >= 0.0;
  }
};

Buckets buckets(const CellRun& t) {
  Buckets b;
  double ftl_ns = 0.0;
  for (const LeafRun& l : t.leaves) {
    b.window_ns += static_cast<double>(l.window_end_ns - l.window_start_ns);
    b.run_wall_ns += l.result.measure_wall_seconds * 1e9;
    b.gen_ns += static_cast<double>(l.gen.ns);
    ftl_ns += static_cast<double>(l.ftl_ns);
  }
  const esp::ftl::FtlStats& s = t.result.raw.ftl_stats;
  b.maint_ns = static_cast<double>(s.maint_gc_ns + s.maint_retention_ns +
                                   s.maint_wear_level_ns +
                                   s.maint_release_idle_ns);
  b.ftl_self_ns = ftl_ns - b.maint_ns;
  b.driver_self_ns = b.window_ns - ftl_ns - b.gen_ns;
  return b;
}

void add_per_layer(Metrics& m, const CellRun& t, const Buckets& b,
                   double untraced_rate) {
  const RunResult& r = t.result;
  const esp::ftl::FtlStats& s = r.raw.ftl_stats;
  const double requests = static_cast<double>(r.raw.requests);
  const auto per_req = [&](double v) { return ratio(v, requests); };
  const auto per_call = [](const Timer& t) {
    return ratio(static_cast<double>(t.ns), static_cast<double>(t.calls));
  };
  Timer write, read, tick, sink_ops;
  double sink_ns = 0.0, pre_s = 0.0, warm_s = 0.0, leaf_sum = 0.0;
  double leaf_max = 0.0;
  double leaf_min = t.leaves.front().result.measure_wall_seconds;
  double sidecar = 0.0;
  esp::nand::DeviceCounters dev;
  for (const LeafRun& l : t.leaves) {
    for (auto [sum, part] : {std::pair{&write, &l.write},
                             std::pair{&read, &l.read},
                             std::pair{&tick, &l.tick},
                             std::pair{&sink_ops, &l.sink_ops}}) {
      sum->calls += part->calls;
      sum->ns += part->ns;
    }
    sink_ns += static_cast<double>(l.sink_ops.ns + l.sink_causes.ns +
                                   l.sink_blocks.ns);
    pre_s = std::max(pre_s, l.precondition_s);
    warm_s = std::max(warm_s, l.warmup_s);
    const double w = l.result.measure_wall_seconds;
    leaf_max = std::max(leaf_max, w);
    leaf_min = std::min(leaf_min, w);
    leaf_sum += w;
    sidecar += static_cast<double>(l.sidecar_bytes);
    dev.reads_full += l.device.reads_full;
    dev.reads_sub += l.device.reads_sub;
    dev.progs_full += l.device.progs_full;
    dev.progs_sub += l.device.progs_sub;
    dev.erases += l.device.erases;
  }
  const double window_s = r.measure_wall_seconds;

  m.add("workload.gen_ns_per_req", per_req(b.gen_ns), "ns");
  m.add("workload.split_s", t.split_s, "s");
  m.add("sim.driver_self_ns_per_req", per_req(b.driver_self_ns), "ns");
  m.add("ftl.write_ns_per_call", per_call(write), "ns");
  m.add("ftl.write_calls", static_cast<double>(write.calls), "count");
  m.add("ftl.read_ns_per_call", per_call(read), "ns");
  m.add("ftl.read_calls", static_cast<double>(read.calls), "count");
  m.add("ftl.tick_ns_per_req", per_req(static_cast<double>(tick.ns)), "ns");
  m.add("ftl.self_ns_per_req", per_req(b.ftl_self_ns), "ns");
  m.add("ftl.gc_ns_per_req", per_req(static_cast<double>(s.maint_gc_ns)), "ns");
  m.add("ftl.retention_ns_per_req",
        per_req(static_cast<double>(s.maint_retention_ns)), "ns");
  m.add("ftl.wear_level_ns_per_req",
        per_req(static_cast<double>(s.maint_wear_level_ns)), "ns");
  m.add("ftl.release_idle_ns_per_req",
        per_req(static_cast<double>(s.maint_release_idle_ns)), "ns");
  m.add("ftl.gc_invocations", static_cast<double>(s.gc_invocations), "count");
  m.add("ftl.gc_copy_sectors_per_erase",
        ratio(static_cast<double>(s.gc_copy_sectors),
              static_cast<double>(dev.erases)),
        "ratio");
  m.add("ftl.retention_evictions", static_cast<double>(s.retention_evictions),
        "count");
  m.add("ftl.retention_evictions_per_call",
        ratio(static_cast<double>(s.retention_evictions),
              static_cast<double>(s.maint_retention_calls)),
        "ratio");
  m.add("ftl.rmw_ops", static_cast<double>(s.rmw_ops), "count");
  m.add("ftl.forward_migrations", static_cast<double>(s.forward_migrations),
        "count");
  m.add("ftl.cold_evictions", static_cast<double>(s.cold_evictions), "count");
  m.add("ftl.wear_level_relocations",
        static_cast<double>(s.wear_level_relocations), "count");
  m.add("nand.prog_full_per_req", per_req(static_cast<double>(dev.progs_full)),
        "1/req");
  m.add("nand.prog_sub_per_req", per_req(static_cast<double>(dev.progs_sub)),
        "1/req");
  m.add("nand.reads_per_req",
        per_req(static_cast<double>(dev.reads_full + dev.reads_sub)), "1/req");
  m.add("nand.erases_per_req", per_req(static_cast<double>(dev.erases)),
        "1/req");
  m.add("nand.chip_util_mean", r.chip_util_mean, "ratio");
  m.add("nand.chip_util_max", r.chip_util_max, "ratio");
  m.add("nand.channel_util_mean", r.channel_util_mean, "ratio");
  m.add("core.precondition_s", pre_s, "s");
  m.add("core.warmup_s", warm_s, "s");
  m.add("core.shard_measure_s_max", leaf_max, "s");
  m.add("core.shard_measure_s_min", leaf_min, "s");
  m.add("core.shard_overlap",
        ratio(leaf_sum, static_cast<double>(t.leaves.size()) * window_s),
        "ratio");
  m.add("core.shard_cpu_s", r.measure_cpu_seconds, "s");
  m.add("telemetry.sink_ns_per_req", per_req(sink_ns), "ns");
  m.add("telemetry.op_events_per_req",
        per_req(static_cast<double>(sink_ops.calls)), "1/req");
  m.add("telemetry.sidecar_bytes", sidecar, "bytes");
  m.add("trace.overhead_ratio", ratio(ratio(requests, window_s), untraced_rate),
        "ratio");
  m.add("trace.bucket_sum_ratio", ratio(b.sum(), b.window_ns), "ratio");
  m.add("trace.window_coverage", ratio(b.window_ns, b.run_wall_ns), "ratio");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, out_dir = ".";
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (arg == "--workload") name = v;
    else if (arg == "--seed") seed = std::atoll(v);
    else if (arg == "--seconds") seconds = std::atof(v);
    else if (arg == "--trace") trace = std::atoi(v);
    else if (arg == "--out-dir") out_dir = v;
    else return usage();
  }
  if (name.empty() || seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1))
    return usage();

  try {
    const WorkloadDef def = make_workload(
        name, static_cast<std::uint64_t>(seed), seconds, out_dir);
    Gates gates;
    Metrics metrics;
    Obj info;
    info.raw("provenance", provenance());
    std::uint64_t attempted = 0, failed = 0;

    if (trace == 0) {
      // `reps` cells, each on its own seed derived from --seed: simulated
      // figures pool their windows, host figures are medians over cells.
      std::vector<HostSample> hs;
      SimPool pool;
      SpeedProbe().pass_ns();  // builds the probes' shared table up front
      bool behaviour = true, tails = true;
      for (int i = 0; i < def.reps; ++i) {
        const WorkloadDef cell_def = rep_cell(def, i);
        const CellRun c = run_cell(cell_def, /*traced=*/false);
        hs.push_back(host_sample(cell_def, c));
        pool.add(c);
        behaviour &= behaves(def, c.result);
        tails &= hs.back().chunks.beyond_p99 >= 10;
      }
      attempted = pool.requests;
      failed = pool.failed;
      add_end_to_end(metrics, def, pool, hs, peak_rss_mib());
      info.raw("sim", sim_info(def, pool));
      Obj host;
      for (std::size_t i = 0; i < hs.size(); ++i)
        host.raw(std::to_string(i),
                 Obj().n("setup_s", hs[i].setup_s)
                     .n("req_per_s", hs[i].req_per_s)
                     .n("raw_req_per_s", hs[i].raw_req_per_s)
                     .n("probe_ns", hs[i].probe_ns)
                     .n("chunks", static_cast<double>(hs[i].chunks.chunks))
                     .n("chunks_beyond_p99",
                        static_cast<double>(hs[i].chunks.beyond_p99))
                     .s("digest", hex(hs[i].digest))
                     .str());
      info.raw("cells", host.str())
          .n("chunk_requests", static_cast<double>(def.chunk));
      gates.check("no_failed_ops", failed == 0);
      gates.check("behaviour", behaviour);
      gates.check("chunks_beyond_p99_ge_10", tails);
      gates.check("sim_p50_not_clamped", !clamped(pool.resp, 0.50));
      if (def.observers)
        gates.check("steady_state_waf",
                    pool.half_gap(def.spec.ssd.geometry) <= 0.1);
    } else {
      // Reference: the same spec through core::run_experiment (for the
      // sharded cell, its own shard path and join).
      const RunResult ref = esp::core::run_experiment(def.spec);
      if (def.spec.shards > 1) {
        gates.check("merged_equals_shard_sum", merged_equals_sum(ref));
        const RunResult mine =
            merge_shards(ref.shard_results, def.spec.ssd.geometry);
        gates.check("merge_matches_core",
                    mine.overall_waf == ref.overall_waf &&
                        mine.host_mb_per_sec == ref.host_mb_per_sec &&
                        mine.chip_util_mean == ref.chip_util_mean &&
                        mine.raw.response_p50_us == ref.raw.response_p50_us);
      }
      const CellRun u = run_cell(def, /*traced=*/false);
      const CellRun t = run_cell(def, /*traced=*/true);
      const RunResult& r = t.result;
      attempted = r.raw.requests;
      failed = failed_ops(r) + failed_ops(u.result) + failed_ops(ref);
      const Buckets b = buckets(t);
      add_per_layer(metrics, t, b, host_sample(def, u).raw_req_per_s);
      const std::string spans_path = out_dir + "/" + name + ".spans.jsonl";
      write_spans(t, spans_path);
      std::uint64_t spans = t.cell_spans.spans().size(), dropped = 0;
      for (const LeafRun& l : t.leaves) {
        spans += l.spans.spans().size();
        dropped += l.spans.dropped();
      }
      const std::uint64_t d_ref = sim_digest(ref);
      info.s("run_experiment_digest", hex(d_ref))
          .s("untraced_digest", hex(sim_digest(u.result)))
          .s("traced_digest", hex(sim_digest(r)))
          .s("spans_path", spans_path)
          .n("spans", static_cast<double>(spans))
          .n("spans_dropped", static_cast<double>(dropped));
      gates.check("no_failed_ops", failed == 0);
      gates.check("digest_untraced_equals_run_experiment",
                  sim_digest(u.result) == d_ref);
      gates.check("digest_traced_equals_untraced", sim_digest(r) == d_ref);
      gates.check("behaviour", behaves(def, r));
      gates.check("buckets_nonnegative", b.nonnegative());
      gates.check("buckets_sum_to_window",
                  std::fabs(b.sum() - b.window_ns) <= 1e-9 * b.window_ns);
      gates.check("buckets_cover_run",
                  b.window_ns > 0.99 * b.run_wall_ns &&
                      b.window_ns <= b.run_wall_ns);
    }

    info.raw("gates", gates.obj.str());
    const std::string report =
        Obj()
            .s("workload", name)
            .n("seed", static_cast<double>(seed))
            .n("trace", trace)
            .raw("info", info.str())
            .b("correct", gates.all)
            .n("attempted", static_cast<double>(attempted))
            .n("failed", static_cast<double>(failed))
            .raw("metrics", metrics.obj.str())
            .str();
    std::printf("%s\n", report.c_str());
    return gates.all ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
