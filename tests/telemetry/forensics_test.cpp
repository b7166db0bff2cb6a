// ForensicsCollector unit tests (issue satellite): the interval sweep
// (overlap, priority, clipping, burst coalescing), the bit-exact
// phase-sum invariant under randomized op patterns, the slowest-N
// tie-break discipline and the windowed blame decomposition.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/forensics.h"

namespace esp::telemetry {
namespace {

constexpr std::size_t kQueueWait =
    static_cast<std::size_t>(Phase::kQueueWait);
constexpr std::size_t kMediaRead =
    static_cast<std::size_t>(Phase::kMediaRead);
constexpr std::size_t kMediaProg =
    static_cast<std::size_t>(Phase::kMediaProg);
constexpr std::size_t kRmwRead = static_cast<std::size_t>(Phase::kRmwRead);
constexpr std::size_t kStallGc = static_cast<std::size_t>(Phase::kStallGc);
constexpr std::size_t kBufferWait =
    static_cast<std::size_t>(Phase::kBufferWait);

ForensicsHeader test_header() {
  ForensicsHeader h;
  h.ftl = "testFTL";
  h.chips = 2;
  h.blocks_per_chip = 8;
  h.pages_per_block = 16;
  h.subpages_per_page = 4;
  h.page_bytes = 16384;
  h.seed = 1;
  return h;
}

OpEvent flash_op(OpKind kind, SimTime start, SimTime end,
                 std::uint32_t chip = 0, std::uint32_t block = 0) {
  OpEvent e;
  e.kind = kind;
  e.start = start;
  e.end = end;
  e.chip = chip;
  e.block = block;
  return e;
}

/// A one-frame cause chain (the driver hands the facade's live stack).
std::vector<CauseFrame> chain_of(Cause cause) {
  if (cause == Cause::kHost) return {};
  CauseFrame f;
  f.cause = cause;
  return {f};
}

void feed_op(ForensicsCollector& fc, OpKind kind, Cause cause, SimTime start,
             SimTime end, std::uint32_t chip = 0, std::uint32_t block = 0) {
  const auto chain = chain_of(cause);
  fc.on_op(flash_op(kind, start, end, chip, block), cause, chain);
}

/// Lines of type `t` ("ex", "blame", ...) from the captured stream.
std::vector<std::string> lines_of_type(const std::string& dump,
                                       const std::string& type) {
  std::vector<std::string> out;
  std::istringstream is(dump);
  std::string line;
  const std::string tag = "\"t\":\"" + type + "\"";
  while (std::getline(is, line))
    if (line.find(tag) != std::string::npos) out.push_back(line);
  return out;
}

TEST(Forensics, SingleReadDecomposesIntoQueueWaitPlusMediaRead) {
  std::ostringstream os;
  ForensicsCollector fc(os, test_header(), {});
  fc.begin_request(1, /*arrival=*/0.0, /*issue=*/16.0, /*tenant=*/0);
  feed_op(fc, OpKind::kRead, Cause::kHost, 16.0, 48.0);
  fc.end_request(OpKind::kHostRead, 48.0);

  const auto blame = fc.tenant_blame();
  ASSERT_EQ(blame.size(), 1u);
  EXPECT_EQ(blame[0].requests, 1u);
  EXPECT_EQ(blame[0].phase_us[kQueueWait], 16.0);
  EXPECT_EQ(blame[0].phase_us[kMediaRead], 32.0);
  EXPECT_EQ(blame[0].phase_us[kBufferWait], 0.0);
  EXPECT_EQ(fc.reconcile_failures(), 0u);
}

TEST(Forensics, StallOutranksOverlappingHostMediaWork) {
  std::ostringstream os;
  ForensicsCollector fc(os, test_header(), {});
  fc.begin_request(1, 0.0, 0.0, 0);
  // Host read spans [0,64); a GC program overlaps [16,32). The overlapped
  // slice must charge to stall_gc, not media_read.
  feed_op(fc, OpKind::kRead, Cause::kHost, 0.0, 64.0);
  feed_op(fc, OpKind::kProgFull, Cause::kGcCopy, 16.0, 32.0);
  fc.end_request(OpKind::kHostRead, 64.0);

  const auto blame = fc.tenant_blame();
  ASSERT_EQ(blame.size(), 1u);
  EXPECT_EQ(blame[0].phase_us[kMediaRead], 48.0);
  EXPECT_EQ(blame[0].phase_us[kStallGc], 16.0);
  EXPECT_EQ(fc.reconcile_failures(), 0u);
}

TEST(Forensics, RmwScopeSplitsReadsFromProgramHalf) {
  std::ostringstream os;
  ForensicsCollector fc(os, test_header(), {});
  fc.begin_request(1, 0.0, 0.0, 0);
  feed_op(fc, OpKind::kRead, Cause::kRmw, 0.0, 32.0);      // rmw_read
  feed_op(fc, OpKind::kProgFull, Cause::kRmw, 32.0, 48.0);  // media_prog
  fc.end_request(OpKind::kHostWrite, 48.0);

  const auto blame = fc.tenant_blame();
  EXPECT_EQ(blame[0].phase_us[kRmwRead], 32.0);
  EXPECT_EQ(blame[0].phase_us[kMediaProg], 16.0);
  EXPECT_EQ(blame[0].phase_us[kMediaRead], 0.0);
}

TEST(Forensics, UncoveredServiceTimeLandsInBufferWait) {
  std::ostringstream os;
  ForensicsCollector fc(os, test_header(), {});
  fc.begin_request(1, 0.0, 8.0, 0);
  feed_op(fc, OpKind::kProgFull, Cause::kHost, 24.0, 40.0);
  fc.end_request(OpKind::kHostWrite, 56.0);

  const auto blame = fc.tenant_blame();
  EXPECT_EQ(blame[0].phase_us[kQueueWait], 8.0);
  EXPECT_EQ(blame[0].phase_us[kMediaProg], 16.0);
  EXPECT_EQ(blame[0].phase_us[kBufferWait], 32.0);
}

TEST(Forensics, OpsClipToTheServiceWindow) {
  std::ostringstream os;
  ForensicsCollector fc(os, test_header(), {});
  // A buffered write's flush op can start before this request's issue and
  // outlive its completion; only the [issue, done) slice charges.
  fc.begin_request(1, 0.0, 32.0, 0);
  feed_op(fc, OpKind::kRead, Cause::kHost, 0.0, 100.0);
  fc.end_request(OpKind::kHostRead, 64.0);

  const auto blame = fc.tenant_blame();
  EXPECT_EQ(blame[0].phase_us[kQueueWait], 32.0);
  EXPECT_EQ(blame[0].phase_us[kMediaRead], 32.0);
}

TEST(Forensics, CoalescedBurstChargesTheExactUnion) {
  std::ostringstream os;
  ForensicsCollector::Config cfg;
  cfg.audit = true;
  ForensicsCollector fc(os, test_header(), cfg);
  fc.begin_request(1, 0.0, 0.0, 0);
  // A GC burst: 300 abutting ops, alternating reads and programs, each on
  // its own block. All classify to stall_gc and coalesce into one
  // segment; phase charge is the union [0, 300).
  for (int i = 0; i < 300; ++i)
    feed_op(fc, i % 2 ? OpKind::kProgFull : OpKind::kRead, Cause::kGcCopy,
            static_cast<double>(i), static_cast<double>(i + 1),
            /*chip=*/0, /*block=*/static_cast<std::uint32_t>(i));
  feed_op(fc, OpKind::kRead, Cause::kHost, 300.0, 350.0);
  fc.end_request(OpKind::kHostWrite, 350.0);
  fc.finish();

  const auto blame = fc.tenant_blame();
  EXPECT_EQ(blame[0].phase_us[kStallGc], 300.0);
  EXPECT_EQ(blame[0].phase_us[kMediaRead], 50.0);
  EXPECT_EQ(fc.reconcile_failures(), 0u);

  // The exemplar records both distinct chains, all 300 first contacts in
  // blocks_touched, and the bounded 16-address list.
  const auto exs = lines_of_type(os.str(), "ex");
  ASSERT_EQ(exs.size(), 1u);
  EXPECT_NE(exs[0].find("\"chains\":[\"gc_copy\",\"\"]"), std::string::npos)
      << exs[0];
  EXPECT_NE(exs[0].find("\"blocks_touched\":300"), std::string::npos)
      << exs[0];
  std::size_t addrs = 0;
  for (std::size_t pos = exs[0].find("\"0:");
       pos != std::string::npos; pos = exs[0].find("\"0:", pos + 1))
    ++addrs;
  EXPECT_EQ(addrs, 16u);
}

TEST(Forensics, RandomizedSweepsReconcileBitExactly) {
  // The online invariant under adversarial floats: random arrival/issue
  // offsets, random overlapping op intervals with irrational-ish
  // durations, every cause/kind mix. audit=true turns any reconciliation
  // miss into a throw; reconcile_failures() must stay 0.
  std::ostringstream os;
  ForensicsCollector::Config cfg;
  cfg.audit = true;
  cfg.window_requests = 256;
  ForensicsCollector fc(os, test_header(), cfg);
  std::mt19937 rng(20260808u);
  std::uniform_real_distribution<double> dur(0.001, 977.31);
  std::uniform_int_distribution<int> ops(0, 12);
  std::uniform_int_distribution<int> pick(0, 6);
  const Cause causes[] = {Cause::kHost,       Cause::kRmw,
                          Cause::kFlush,      Cause::kGcCopy,
                          Cause::kForwardMigration,
                          Cause::kRetentionEvict, Cause::kWearLevel};
  const OpKind kinds[] = {OpKind::kRead, OpKind::kProgFull, OpKind::kProgSub,
                          OpKind::kErase};
  double now = 0.0;
  for (std::uint32_t id = 1; id <= 2000; ++id) {
    const double arrival = now + dur(rng) * 0.25;
    const double issue = arrival + dur(rng) * 0.125;
    fc.begin_request(id, arrival, issue, static_cast<std::uint16_t>(id % 3));
    double done = issue + dur(rng) * 0.0625;
    const int n = ops(rng);
    for (int i = 0; i < n; ++i) {
      const double s = issue + dur(rng) * 0.5 - 100.0;  // may precede issue
      const double e = s + dur(rng);
      feed_op(fc, kinds[pick(rng) % 4], causes[pick(rng)], s, e,
              static_cast<std::uint32_t>(i % 2),
              static_cast<std::uint32_t>(i));
      done = std::max(done, e - dur(rng) * 0.01);  // ops may outlive done
    }
    ASSERT_NO_THROW(fc.end_request(OpKind::kHostWrite, done)) << id;
    now = arrival;
  }
  fc.finish();
  EXPECT_EQ(fc.requests(), 2000u);
  EXPECT_EQ(fc.reconcile_failures(), 0u);
}

/// Test-local restatement of the collector's interval sweep: coalesce each
/// op into the previous segment when same-phase and overlapping, clip to
/// [issue, done), then charge every elementary slice, in time order, to
/// the highest-priority active phase.
std::array<double, kPhaseCount> reference_sweep(
    const std::vector<std::pair<OpEvent, Cause>>& ops, SimTime issue,
    SimTime done) {
  struct Seg {
    SimTime start, end;
    Phase phase;
  };
  std::vector<Seg> segs;
  for (const auto& [ev, cause] : ops) {
    const Phase phase = classify_phase(cause, ev.kind);
    if (!segs.empty() && segs.back().phase == phase &&
        ev.start <= segs.back().end && ev.start >= segs.back().start) {
      segs.back().end = std::max(segs.back().end, ev.end);
    } else {
      segs.push_back({ev.start, ev.end, phase});
    }
  }
  struct Edge {
    SimTime at;
    Phase phase;
    int delta;
  };
  std::vector<Edge> edges;
  for (const Seg& seg : segs) {
    const SimTime s = std::max(seg.start, issue);
    const SimTime e = std::min(seg.end, done);
    if (e > s) {
      edges.push_back({s, seg.phase, +1});
      edges.push_back({e, seg.phase, -1});
    }
  }
  std::stable_sort(edges.begin(), edges.end(),
                   [](const Edge& x, const Edge& y) { return x.at < y.at; });
  constexpr Phase kPriority[] = {Phase::kStallGc,   Phase::kStallMaint,
                                 Phase::kStallFlush, Phase::kRmwRead,
                                 Phase::kMediaProg, Phase::kMediaRead};
  std::array<double, kPhaseCount> out{};
  std::array<int, kPhaseCount> active{};
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i > 0 && edges[i].at > edges[i - 1].at)
      for (const Phase p : kPriority)
        if (active[static_cast<std::size_t>(p)] > 0) {
          out[static_cast<std::size_t>(p)] += edges[i].at - edges[i - 1].at;
          break;
        }
    active[static_cast<std::size_t>(edges[i].phase)] += edges[i].delta;
  }
  return out;
}

TEST(Forensics, ChainedAndOverlappingOpsMatchTheReferenceSweep) {
  // Chained requests (each op starting no earlier than the previous one
  // ended) skip the sweep; overlapping ones take it. Both must charge
  // every phase bit-identically to the reference.
  std::mt19937 rng(7u);
  std::uniform_real_distribution<double> dur(0.001, 97.31);
  std::uniform_int_distribution<int> ops(1, 6);
  std::uniform_int_distribution<int> pick(0, 6);
  const Cause causes[] = {Cause::kHost,       Cause::kRmw,
                          Cause::kFlush,      Cause::kGcCopy,
                          Cause::kForwardMigration,
                          Cause::kRetentionEvict, Cause::kWearLevel};
  const OpKind kinds[] = {OpKind::kRead, OpKind::kProgFull, OpKind::kProgSub,
                          OpKind::kErase};
  for (int trial = 0; trial < 500; ++trial) {
    const bool chained = trial % 2 == 0;
    const double arrival = dur(rng);
    const double issue = arrival + dur(rng) * 0.25;
    double t = issue - dur(rng) * 0.1;  // the first op may precede issue
    std::vector<std::pair<OpEvent, Cause>> seq;
    const int n = ops(rng);
    for (int i = 0; i < n; ++i) {
      // Chained ops abut or leave a gap; the others may start anywhere.
      const double s = chained ? t + (pick(rng) < 3 ? 0.0 : dur(rng) * 0.1)
                               : issue + dur(rng) * 0.5 - 10.0;
      const double e = s + dur(rng);
      seq.push_back({flash_op(kinds[pick(rng) % 4], s, e), causes[pick(rng)]});
      t = e;
    }
    const double done = t - (pick(rng) < 2 ? dur(rng) * 0.05 : 0.0);

    std::ostringstream os;
    ForensicsCollector fc(os, test_header(), {});
    fc.begin_request(1, arrival, issue, 0);
    for (const auto& [ev, cause] : seq)
      fc.on_op(ev, cause, chain_of(cause));
    fc.end_request(OpKind::kHostWrite, done);

    const auto want = reference_sweep(seq, issue, done);
    const auto got = fc.tenant_blame()[0].phase_us;
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      if (p == kQueueWait || p == kBufferWait) continue;
      EXPECT_EQ(got[p], want[p]) << "trial " << trial << " phase " << p;
    }
    EXPECT_EQ(got[kQueueWait], issue - arrival);
    EXPECT_EQ(fc.reconcile_failures(), 0u);
  }
}

TEST(Forensics, TopKTiesBreakTowardSmallerRequestId) {
  std::ostringstream os;
  ForensicsCollector::Config cfg;
  cfg.top_k = 4;
  ForensicsCollector fc(os, test_header(), cfg);
  // Eight identical-response requests, ids 1..8 arriving out of order:
  // the retained four must be ids 1,2,3,4 regardless of arrival order.
  for (const std::uint32_t id : {5u, 2u, 8u, 1u, 6u, 3u, 7u, 4u}) {
    fc.begin_request(id, 0.0, 0.0, 0);
    feed_op(fc, OpKind::kRead, Cause::kHost, 0.0, 100.0);
    fc.end_request(OpKind::kHostRead, 100.0);
  }
  fc.finish();

  const auto exs = lines_of_type(os.str(), "ex");
  ASSERT_EQ(exs.size(), 4u);
  for (std::uint32_t rank = 1; rank <= 4; ++rank) {
    const std::string want = "{\"t\":\"ex\",\"rank\":" + std::to_string(rank) +
                             ",\"req\":" + std::to_string(rank) + ",";
    EXPECT_EQ(exs[rank - 1].rfind(want, 0), 0u) << exs[rank - 1];
  }
}

TEST(Forensics, ExemplarsRankSlowestFirst) {
  std::ostringstream os;
  ForensicsCollector::Config cfg;
  cfg.top_k = 3;
  ForensicsCollector fc(os, test_header(), cfg);
  const double responses[] = {10.0, 50.0, 30.0, 20.0, 40.0};
  std::uint32_t id = 0;
  for (const double r : responses) {
    fc.begin_request(++id, 0.0, 0.0, 0);
    feed_op(fc, OpKind::kRead, Cause::kHost, 0.0, r);
    fc.end_request(OpKind::kHostRead, r);
  }
  fc.finish();
  EXPECT_EQ(fc.exemplars_retained(), 3u);
  EXPECT_EQ(fc.truncated(), 2u);

  const auto exs = lines_of_type(os.str(), "ex");
  ASSERT_EQ(exs.size(), 3u);
  EXPECT_NE(exs[0].find("\"response_us\":50"), std::string::npos) << exs[0];
  EXPECT_NE(exs[1].find("\"response_us\":40"), std::string::npos) << exs[1];
  EXPECT_NE(exs[2].find("\"response_us\":30"), std::string::npos) << exs[2];
}

TEST(Forensics, WindowBlameSumsTheSlowestOnePercent) {
  std::ostringstream os;
  ForensicsCollector::Config cfg;
  cfg.window_requests = 200;  // tail = ceil(200/100) = 2 requests
  ForensicsCollector fc(os, test_header(), cfg);
  // 198 fast reads plus two slow outliers with disjoint phase signatures:
  // the blame tail must be exactly outlier1 + outlier2.
  for (std::uint32_t id = 1; id <= 198; ++id) {
    const double base = id * 10.0;
    fc.begin_request(id, base, base, 0);
    feed_op(fc, OpKind::kRead, Cause::kHost, base, base + 5.0);
    fc.end_request(OpKind::kHostRead, base + 5.0);
  }
  fc.begin_request(199, 3000.0, 3000.0, 0);
  feed_op(fc, OpKind::kRead, Cause::kGcCopy, 3000.0, 4000.0);  // stall_gc
  fc.end_request(OpKind::kHostRead, 4000.0);
  fc.begin_request(200, 5000.0, 5000.0, 0);
  feed_op(fc, OpKind::kRead, Cause::kRmw, 5000.0, 5900.0);  // rmw_read
  fc.end_request(OpKind::kHostWrite, 5900.0);

  EXPECT_EQ(fc.windows_written(), 1u);  // closed inline at request 200
  const auto blames = lines_of_type(os.str(), "blame");
  ASSERT_EQ(blames.size(), 1u);
  EXPECT_NE(blames[0].find("\"requests\":200"), std::string::npos);
  EXPECT_NE(blames[0].find("\"tail_requests\":2"), std::string::npos);
  EXPECT_NE(blames[0].find("\"p99_us\":900"), std::string::npos)
      << blames[0];
  EXPECT_NE(blames[0].find("\"stall_gc_us\":1000"), std::string::npos);
  EXPECT_NE(blames[0].find("\"rmw_read_us\":900"), std::string::npos);
  EXPECT_NE(blames[0].find("\"media_read_us\":0,"), std::string::npos);
}

TEST(Forensics, PerTenantBlameAndTailAreSeparate) {
  std::ostringstream os;
  ForensicsCollector::Config cfg;
  cfg.top_k = 2;
  ForensicsCollector fc(os, test_header(), cfg);
  for (std::uint32_t id = 1; id <= 6; ++id) {
    const auto tenant = static_cast<std::uint16_t>(id % 2);
    const double base = id * 100.0;
    const double resp = tenant == 0 ? 40.0 : 10.0 + id;
    fc.begin_request(id, base, base, tenant);
    feed_op(fc, OpKind::kRead, Cause::kHost, base, base + resp);
    fc.end_request(OpKind::kHostRead, base + resp);
  }
  fc.finish();

  const auto blame = fc.tenant_blame();
  ASSERT_EQ(blame.size(), 2u);
  EXPECT_EQ(blame[0].requests, 3u);
  EXPECT_EQ(blame[1].requests, 3u);
  EXPECT_EQ(blame[0].phase_us[kMediaRead], 120.0);
  EXPECT_EQ(blame[0].tail_requests, 2u);
  EXPECT_EQ(blame[0].worst_response_us, 40.0);
  EXPECT_EQ(blame[1].worst_response_us, 15.0);  // id 5, tenant 1
  // Multi-tenant streams carry per-tenant tnt lines.
  EXPECT_EQ(lines_of_type(os.str(), "tnt").size(), 2u);
}

}  // namespace
}  // namespace esp::telemetry
