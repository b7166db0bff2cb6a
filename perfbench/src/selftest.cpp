// Self-test of the benchmark's own helpers: chunk percentiles and their
// sample counts, the simulated-state digest, the span store, and the
// passivity of the probes on a tiny geometry (traced, untraced and
// core::run_experiment runs of one spec must digest equal).
//
//   perfbench_selftest [OUT_DIR]      exit 0 = all checks passed
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "cells.h"
#include "core/experiment.h"
#include "digest.h"
#include "probes.h"
#include "workload/profiles.h"
#include "workload/splitter.h"

namespace {

using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,        \
                   __LINE__, #cond);                                     \
      ++g_failures;                                                      \
    }                                                                    \
  } while (0)

esp::workload::Request write_req(std::uint64_t sector) {
  esp::workload::Request r;
  r.sector = sector;
  r.count = 1;
  return r;
}

void test_chunk_clock() {
  std::vector<esp::workload::Request> reqs;
  for (std::uint64_t i = 0; i < 1050; ++i) reqs.push_back(write_req(i));
  esp::workload::VectorSource src(reqs);
  std::vector<int> phases;
  ChunkClock clock(src, /*skip=*/50, /*chunk=*/100, /*mid=*/500,
                   [&](int p) { phases.push_back(p); });
  std::uint64_t pulled = 0;
  while (clock.next()) ++pulled;
  CHECK(pulled == 1050);
  CHECK(clock.measured() == 1000);
  CHECK(clock.chunks().size() == 10);
  for (const Chunk& c : clock.chunks()) CHECK(c.requests == 100);
  CHECK((phases == std::vector<int>{0, 1, 2}));
  CHECK(clock.window_end_ns() >= clock.window_start_ns());

  // A trailing partial chunk is closed at exhaustion but not ranked.
  esp::workload::VectorSource src2(
      std::vector<esp::workload::Request>(reqs.begin(), reqs.begin() + 250));
  ChunkClock partial(src2, 0, 100);
  while (partial.next()) {
  }
  CHECK(partial.chunks().size() == 3);
  CHECK(partial.chunks().back().requests == 50);
  CHECK(chunk_stats(partial.chunks(), 100).chunks == 2);

  // With the probe, a pass precedes every chunk and stays out of it.
  esp::workload::VectorSource src3(reqs);
  ChunkClock probed(src3, 50, 100, 0, {}, /*probe=*/true);
  while (probed.next()) {
  }
  CHECK(probed.chunks().size() == 10);
  std::uint64_t passes = 0;
  for (const Chunk& c : probed.chunks()) {
    CHECK(c.probe_ns > 0);
    passes += c.probe_ns;
  }
  CHECK(probed.probe_ns() >= passes);
  CHECK(probed.window_end_ns() - probed.window_start_ns() >= passes);
}

void test_probe_scaled() {
  // 200 chunks of 1000 ns on a host at reference speed, but chunks 50-69
  // ran while the host was twice as slow (and so was the probe) and chunk
  // 120 hit a 5x burst of the program's own. Scaling undoes the first
  // and keeps the second.
  const auto ref = static_cast<std::uint64_t>(SpeedProbe::kReferenceNs);
  std::vector<Chunk> chunks(200, Chunk{10, 1000, ref});
  for (std::size_t i = 50; i < 70; ++i) chunks[i] = {10, 2000, 2 * ref};
  chunks[120].cpu_ns = 5000;
  const ChunkStats raw = chunk_stats(chunks, 10);
  CHECK(raw.p99_ns == 200.0);
  const std::vector<Chunk> scaled = probe_scaled(chunks);
  for (std::size_t i = 0; i < scaled.size(); ++i)
    CHECK(scaled[i].cpu_ns == (i == 120 ? 5000 : 1000));
  const ChunkStats s = chunk_stats(scaled, 10);
  CHECK(s.p50_ns == 100.0 && s.p99_ns == 100.0);
  // Unprobed chunks stay as they are.
  const std::vector<Chunk> plain(5, Chunk{10, 700, 0});
  CHECK(probe_scaled(plain)[2].cpu_ns == 700);
}

void test_chunk_stats() {
  // Rates 1..2000 ns/request: nearest-rank p50 = 1000, p99 = 1980, and
  // the 20 chunks ranked after p99 are the tail the metric must see.
  std::vector<Chunk> chunks;
  for (std::uint64_t i = 2000; i >= 1; --i) chunks.push_back({10, i * 10});
  const ChunkStats s = chunk_stats(chunks, 10);
  CHECK(s.chunks == 2000);
  CHECK(s.p50_ns == 1000.0);
  CHECK(s.p99_ns == 1980.0);
  CHECK(s.beyond_p99 == 20);
  // Fewer than 100 chunks: p99 is the maximum and nothing lies beyond.
  const ChunkStats small = chunk_stats(std::vector<Chunk>(50, {4, 40}), 4);
  CHECK(small.chunks == 50 && small.beyond_p99 == 0 && small.p99_ns == 10.0);
  CHECK(chunk_stats({}, 4).chunks == 0);
}

void test_spans() {
  SpanRecorder rec(/*capacity=*/5, /*stride=*/2);
  rec.begin_request(0, 10);  // sampled
  const std::uint32_t a = rec.open("a", 11);
  const std::uint32_t b = rec.open("b", 12);
  rec.close(b, 13);
  rec.close(a, 14);
  rec.begin_request(1, 20);  // not sampled
  CHECK(rec.open("c", 21) == kNoSpan);
  rec.begin_request(2, 30);  // sampled; the store fills up
  rec.open("d", 31);
  rec.open("e", 32);
  rec.end_request(40);
  const auto& s = rec.spans();
  CHECK(s.size() == 5);
  CHECK(rec.dropped() == 1);
  CHECK(s[0].parent == kNoSpan && s[0].end_ns == 20);  // request 0
  CHECK(s[1].parent == 0 && s[2].parent == 1);          // a <- b
  CHECK(s[2].start_ns == 12 && s[2].end_ns == 13);
  CHECK(s[3].request == 2 && s[4].parent == 3 && s[4].end_ns == 40);
  std::ostringstream os;
  rec.write_jsonl(os, 10);
  CHECK(os.str().find("\"name\":\"b\",\"req\":0,\"parent\":1,"
                      "\"start_ns\":2,\"end_ns\":3}") != std::string::npos);
}

esp::core::RunResult tiny_result(std::uint64_t requests) {
  esp::core::RunResult r;
  r.raw.requests = requests;
  r.raw.end_us = 123.5;
  r.raw.response_hist.add(42.0);
  r.raw.ftl_stats.host_write_sectors = 7;
  r.chip_util_mean = 0.25;
  return r;
}

void test_digest() {
  const esp::core::RunResult a = tiny_result(10);
  esp::core::RunResult b = tiny_result(10);
  CHECK(sim_digest(a) == sim_digest(b));
  // Host-side timings never enter the digest.
  b.measure_wall_seconds = 9.0;
  b.measure_cpu_seconds = 3.0;
  b.raw.ftl_stats.maint_gc_ns = 12345;
  CHECK(sim_digest(a) == sim_digest(b));
  // Any simulated field does.
  b.raw.response_hist.add(43.0);
  CHECK(sim_digest(a) != sim_digest(b));
  b = tiny_result(10);
  b.raw.ftl_stats.gc_copy_sectors = 1;
  CHECK(sim_digest(a) != sim_digest(b));
  b = tiny_result(10);
  b.chip_util_mean = 0.250000001;
  CHECK(sim_digest(a) != sim_digest(b));
  // Sharded: shards digest in index order.
  esp::core::RunResult m1, m2;
  m1.shard_results = {tiny_result(1), tiny_result(2)};
  m2.shard_results = {tiny_result(2), tiny_result(1)};
  CHECK(sim_digest(m1) != sim_digest(m2));
}

/// A few-second cell on a 2-channel device that still runs GC.
WorkloadDef tiny_def(const std::string& out_dir, bool observers,
                     unsigned shards) {
  WorkloadDef def;
  def.name = "tiny";
  esp::core::ExperimentSpec& spec = def.spec;
  spec.ssd.geometry.channels = 2;
  spec.ssd.geometry.chips_per_channel = 2;
  spec.ssd.geometry.blocks_per_chip = 32;
  spec.ssd.geometry.pages_per_block = 32;
  spec.ssd.ftl = esp::core::FtlKind::kSub;
  spec.ssd.queue_depth = 16;
  spec.ssd.logical_fraction = 0.7;
  spec.ssd.gc_reserve_blocks = 4;
  spec.workload = esp::workload::benchmark_profile(
      esp::workload::Benchmark::kVarmail, 0, 0,
      spec.ssd.geometry.subpages_per_page, 7);
  spec.workload.think_us = 50.0;
  spec.shards = shards;
  if (shards == 1) {
    spec.workload.footprint_sectors = static_cast<std::uint64_t>(
        spec.precondition_fraction *
        static_cast<double>(spec.ssd.logical_sectors())) / 4 * 4;
  }
  def.measured = 20000;
  def.chunk = 100;
  spec.warmup_requests = 5000;
  spec.workload.request_count = spec.warmup_requests + def.measured;
  def.observers = observers;
  if (observers) {
    spec.health_path = out_dir + "/selftest.health.jsonl";
    spec.health_interval_us = 0.05 * esp::sim_time::kSecond;
    spec.forensics_path = out_dir + "/selftest.forensics.jsonl";
  }
  return def;
}

void test_passive(const std::string& out_dir, bool observers,
                  unsigned shards) {
  const WorkloadDef def = tiny_def(out_dir, observers, shards);
  const esp::core::RunResult ref = esp::core::run_experiment(def.spec);
  const CellRun untraced = run_cell(def, false);
  const CellRun traced = run_cell(def, true);
  CHECK(ref.raw.requests > 0);
  CHECK(ref.raw.verify_failures == 0);
  CHECK(sim_digest(untraced.result) == sim_digest(ref));
  CHECK(sim_digest(traced.result) == sim_digest(ref));
  CHECK(traced.leaves.size() == shards);
  std::uint64_t calls = 0;
  for (const LeafRun& l : traced.leaves) {
    calls += l.write.calls + l.read.calls + l.flush.calls + l.trim.calls;
    CHECK(!l.spans.spans().empty());
    if (observers) CHECK(l.sink_ops.calls > 0 && l.sidecar_bytes > 0);
  }
  // One FTL host call per measured request (flushes included).
  CHECK(calls == ref.raw.requests);
  if (shards == 1) {
    CHECK(ref.raw.ftl_stats.gc_invocations > 0);
    // The untraced chunk clock covers the window in full chunks.
    CHECK(untraced.leaves[0].chunks.size() == def.measured / def.chunk);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  test_chunk_clock();
  test_chunk_stats();
  test_probe_scaled();
  test_spans();
  test_digest();
  test_passive(out_dir, /*observers=*/false, /*shards=*/1);
  test_passive(out_dir, /*observers=*/true, /*shards=*/1);
  test_passive(out_dir, /*observers=*/false, /*shards=*/2);
  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
