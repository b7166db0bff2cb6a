// Driver unit tests: queue-depth pipelining, clock semantics, verification,
// latency accounting, fault surfacing.
#include "sim/driver.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "ftl/cgm_ftl.h"
#include "ftl/sub_ftl.h"
#include "nand/device.h"
#include "util/serialize.h"
#include "workload/synthetic.h"

namespace esp::sim {
namespace {

using workload::Request;

nand::Geometry tiny_geo() {
  nand::Geometry geo;
  geo.channels = 4;
  geo.chips_per_channel = 2;
  geo.blocks_per_chip = 16;
  geo.pages_per_block = 16;
  geo.page_bytes = 16 * 1024;
  geo.subpages_per_page = 4;
  return geo;
}

struct DriverFixture {
  explicit DriverFixture(std::uint32_t queue_depth = 32) : dev(tiny_geo()) {
    ftl::CgmFtl::Config cfg;
    cfg.logical_sectors = 2048;
    ftl = std::make_unique<ftl::CgmFtl>(dev, cfg);
    driver = std::make_unique<Driver>(*ftl, dev, queue_depth);
  }
  nand::NandDevice dev;
  std::unique_ptr<ftl::CgmFtl> ftl;
  std::unique_ptr<Driver> driver;
};

TEST(Driver, WriteThenReadVerifies) {
  DriverFixture fx;
  fx.driver->submit({Request::Type::kWrite, 0, 4, false, 0.0});
  fx.driver->submit({Request::Type::kRead, 0, 4, false, 0.0});
  EXPECT_EQ(fx.driver->verify_failures(), 0u);
}

TEST(Driver, DetectsMappingCorruption) {
  // Sabotage: trim behind the driver's back, then read. The shadow map
  // still expects the old token, so verification must flag it.
  DriverFixture fx;
  fx.driver->submit({Request::Type::kWrite, 0, 4, false, 0.0});
  fx.ftl->trim(0, 4);  // bypasses Driver::submit on purpose
  fx.driver->submit({Request::Type::kRead, 0, 4, false, 0.0});
  EXPECT_EQ(fx.driver->verify_failures(), 4u);
}

TEST(Driver, ExpectedTokenTracksVersions) {
  DriverFixture fx;
  EXPECT_EQ(fx.driver->expected_token(9), 0u);
  fx.driver->submit({Request::Type::kWrite, 9, 1, false, 0.0});
  const auto v1 = fx.driver->expected_token(9);
  fx.driver->submit({Request::Type::kWrite, 9, 1, false, 0.0});
  EXPECT_NE(fx.driver->expected_token(9), v1);
}

TEST(Driver, QueueDepthPipelinesIndependentChips) {
  // With QD 1, N writes serialize; with QD 32 they overlap across chips.
  auto run_with_qd = [](std::uint32_t qd) {
    DriverFixture fx(qd);
    for (std::uint64_t i = 0; i < 64; ++i)
      fx.driver->submit({Request::Type::kWrite, i * 4, 4, false, 0.0},
                        false);
    return fx.driver->now();
  };
  const SimTime serial = run_with_qd(1);
  const SimTime pipelined = run_with_qd(32);
  EXPECT_LT(pipelined, serial / 3.0);
}

TEST(Driver, ThinkTimePacesArrivals) {
  DriverFixture fx;
  fx.driver->submit({Request::Type::kWrite, 0, 1, true, 1000000.0});
  EXPECT_GE(fx.driver->now(), 1000000.0);
}

TEST(Driver, AdvanceToMovesClockForward) {
  DriverFixture fx;
  fx.driver->advance_to(5000.0);
  EXPECT_EQ(fx.driver->now(), 5000.0);
  fx.driver->advance_to(100.0);  // never backwards
  EXPECT_EQ(fx.driver->now(), 5000.0);
  // Requests issued after an idle advance start no earlier than it.
  const auto result = fx.driver->submit({Request::Type::kWrite, 0, 4,
                                         false, 0.0});
  EXPECT_GE(result.done, 5000.0);
}

TEST(Driver, RunCountsRequestTypes) {
  DriverFixture fx;
  workload::SyntheticParams params;
  params.footprint_sectors = 2048;
  params.request_count = 500;
  params.read_fraction = 0.4;
  params.seed = 3;
  workload::SyntheticWorkload stream(params);
  const auto metrics = fx.driver->run(stream, true);
  EXPECT_EQ(metrics.requests, 500u);
  EXPECT_EQ(metrics.requests,
            metrics.read_requests + metrics.write_requests);
  EXPECT_GT(metrics.read_requests, 100u);
  EXPECT_GT(metrics.iops(), 0.0);
}

TEST(Driver, RunMaxRequestsSplitsStream) {
  DriverFixture fx;
  workload::SyntheticParams params;
  params.footprint_sectors = 2048;
  params.request_count = 300;
  params.seed = 4;
  workload::SyntheticWorkload stream(params);
  const auto first = fx.driver->run(stream, false, 100);
  EXPECT_EQ(first.requests, 100u);
  const auto rest = fx.driver->run(stream, false);
  EXPECT_EQ(rest.requests, 200u);
  EXPECT_GE(rest.start_us, first.end_us);
}

TEST(Driver, LatencyPercentilesPopulated) {
  DriverFixture fx;
  for (std::uint64_t i = 0; i < 100; ++i)
    fx.driver->submit({Request::Type::kWrite, (i % 64) * 4, 4, false, 0.0},
                      false);
  const auto& hist = fx.driver->latency_histogram();
  EXPECT_EQ(hist.total(), 100u);
  EXPECT_GT(hist.percentile(0.5), 0.0);
  EXPECT_GE(hist.percentile(0.99), hist.percentile(0.5));
}

TEST(Driver, IoErrorsSurfaceInMetrics) {
  nand::NandDevice dev(tiny_geo());
  ftl::CgmFtl::Config cfg;
  cfg.logical_sectors = 2048;
  ftl::CgmFtl ftl(dev, cfg);
  Driver driver(ftl, dev);
  driver.submit({Request::Type::kWrite, 0, 4, false, 0.0});
  dev.set_read_fault_injection(1.0, 7);
  const auto result = driver.submit({Request::Type::kRead, 0, 4, false, 0.0});
  EXPECT_FALSE(result.ok);
}

TEST(Driver, FlushDrainsBufferedFtl) {
  nand::NandDevice dev(tiny_geo());
  ftl::SubFtl::Config cfg;
  cfg.logical_sectors = 2048;
  ftl::SubFtl ftl(dev, cfg);
  Driver driver(ftl, dev);
  driver.submit({Request::Type::kWrite, 0, 4, false, 0.0});
  EXPECT_EQ(ftl.stats().flash_prog_full, 0u);  // still buffered
  driver.flush();
  EXPECT_EQ(ftl.stats().flash_prog_full, 1u);
}

TEST(Driver, ZeroQueueDepthClampedToOne) {
  DriverFixture fx(0);
  EXPECT_NO_THROW(
      fx.driver->submit({Request::Type::kWrite, 0, 4, false, 0.0}));
}

/// Fixed request sequence, for tests that need exact latency populations.
class FixedSource final : public workload::RequestSource {
 public:
  explicit FixedSource(std::vector<Request> requests)
      : requests_(std::move(requests)) {}
  std::optional<Request> next() override {
    if (next_ >= requests_.size()) return std::nullopt;
    return requests_[next_++];
  }

 private:
  std::vector<Request> requests_;
  std::size_t next_ = 0;
};

TEST(Driver, WarmupDoesNotPolluteMeasurePercentiles) {
  // Regression: RunMetrics percentiles were once computed over the
  // driver's CUMULATIVE histogram, so a slow warmup shifted the measured
  // run's percentiles. Two cleanly separable service-time populations:
  // warmup full-page programs (~1.6 ms) vs measured page reads (~150 us).
  DriverFixture fx(1);  // QD 1: service times are exact, no chip queueing
  std::vector<Request> warm, meas;
  for (int i = 0; i < 300; ++i)
    warm.push_back({Request::Type::kWrite, (i % 512) * 4ull, 4, false, 0.0});
  for (int i = 0; i < 100; ++i)
    meas.push_back({Request::Type::kRead, (i % 512) * 4ull, 4, false, 0.0});
  FixedSource warm_src(std::move(warm));
  FixedSource meas_src(std::move(meas));

  const auto warmup = fx.driver->run(warm_src, false);
  const auto measure = fx.driver->run(meas_src, false);
  // Each run's histogram holds exactly its own requests...
  EXPECT_EQ(warmup.latency_hist.total(), 300u);
  EXPECT_EQ(measure.latency_hist.total(), 100u);
  // ...so the 3x-larger millisecond-class warmup population cannot drag
  // the measured p50 out of its sub-200-us bucket.
  EXPECT_GT(warmup.latency_p50_us, 1000.0);
  EXPECT_LT(measure.latency_p50_us, 200.0);
}

TEST(Driver, ResponseIncludesQueueingDelayUnderSaturation) {
  // Open-loop arrivals every 10 us against a ~1.6 ms full-page program on
  // a QD-1 window: the backlog grows linearly, so response time (arrival
  // -> done) diverges from service time (issue -> done) by design.
  DriverFixture fx(1);
  std::vector<Request> reqs(50, {Request::Type::kWrite, 0, 4, false, 10.0});
  FixedSource src(std::move(reqs));
  const auto m = fx.driver->run(src, false);
  EXPECT_GE(m.response_p50_us, m.latency_p50_us);
  EXPECT_GT(m.response_p99_us, m.latency_p99_us * 5.0);
  // Closed-loop (think 0) instead rides the window: response ~ service.
  DriverFixture closed(1);
  std::vector<Request> cl(50, {Request::Type::kWrite, 0, 4, false, 0.0});
  FixedSource cl_src(std::move(cl));
  const auto c = closed.driver->run(cl_src, false);
  EXPECT_GE(c.response_p99_us, c.latency_p99_us);
  EXPECT_LT(c.response_p99_us, c.latency_p99_us * 1.5);
}

struct BufferedRig {
  BufferedRig() : dev(tiny_geo()) {
    ftl::SubFtl::Config cfg;
    cfg.logical_sectors = 2048;
    ftl = std::make_unique<ftl::SubFtl>(dev, cfg);
    driver = std::make_unique<Driver>(*ftl, dev);
    driver->submit({Request::Type::kWrite, 0, 1, false, 0.0});
  }
  nand::NandDevice dev;
  std::unique_ptr<ftl::SubFtl> ftl;
  std::unique_ptr<Driver> driver;
};

TEST(Driver, FlushMatchesInStreamFlushRequest) {
  // Driver::flush() is routed through the submit path, so it must be
  // indistinguishable from an in-stream kFlush request: same clock, same
  // latency accounting, same FTL state.
  BufferedRig a;
  a.driver->flush();
  BufferedRig b;
  b.driver->submit({Request::Type::kFlush, 0, 0, false, 0.0}, false);

  EXPECT_EQ(a.driver->now(), b.driver->now());
  EXPECT_EQ(a.driver->latency_histogram().total(),
            b.driver->latency_histogram().total());
  EXPECT_EQ(a.driver->latency_histogram().percentile(0.99),
            b.driver->latency_histogram().percentile(0.99));
  EXPECT_EQ(a.ftl->stats().flash_prog_full, b.ftl->stats().flash_prog_full);
  EXPECT_EQ(a.ftl->stats().flash_prog_sub, b.ftl->stats().flash_prog_sub);
}

/// FixedSource that counts next() calls, the nullopt ones included.
class CountingSource final : public workload::RequestSource {
 public:
  explicit CountingSource(std::vector<Request> requests)
      : inner_(std::move(requests)) {}
  std::optional<Request> next() override {
    ++pulls;
    return inner_.next();
  }
  std::uint64_t pulls = 0;

 private:
  FixedSource inner_;
};

std::vector<Request> writes(std::size_t n) {
  std::vector<Request> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back({Request::Type::kWrite, 4 * i, 4, false, 0.0});
  return out;
}

TEST(Driver, RunPullsExactlyWhatItSubmits) {
  constexpr std::uint64_t kStream = 10;
  for (const std::uint64_t max : {0, 1, 2, 3, 10, 12}) {
    DriverFixture fx;
    CountingSource src(writes(kStream));
    const auto m = fx.driver->run(src, true, max);
    const std::uint64_t submitted = max == 0 ? kStream : std::min(max, kStream);
    EXPECT_EQ(m.requests, submitted) << "max_requests " << max;
    // One extra pull, the nullopt, only when the stream ends first.
    const bool ran_dry = max == 0 || max > kStream;
    EXPECT_EQ(src.pulls, submitted + (ran_dry ? 1 : 0)) << "max " << max;
  }
}

TEST(Driver, SourceRunningDryInsideTheReadAheadRing) {
  // Streams shorter than the ring: the source ends before the first
  // submit, and is never asked again once it has returned nullopt.
  for (const std::size_t n : {0, 1, 2}) {
    DriverFixture fx;
    CountingSource src(writes(n));
    const auto m = fx.driver->run(src, true);
    EXPECT_EQ(m.requests, n);
    EXPECT_EQ(src.pulls, n + 1);
    EXPECT_EQ(fx.driver->verify_failures(), 0u);
  }
}

/// cgmFTL that logs host calls and hints in the order the driver makes
/// them: "w<sector>", "r<sector>", "map<sector>", "target<sector>".
class RecordingFtl final : public ftl::CgmFtl {
 public:
  using CgmFtl::CgmFtl;
  ftl::IoResult write(std::uint64_t sector, std::uint32_t count, bool sync,
                      SimTime now) override {
    log.push_back("w" + std::to_string(sector));
    return CgmFtl::write(sector, count, sync, now);
  }
  ftl::IoResult read(std::uint64_t sector, std::uint32_t count, SimTime now,
                     std::vector<std::uint64_t>* tokens) override {
    log.push_back("r" + std::to_string(sector));
    return CgmFtl::read(sector, count, now, tokens);
  }
  void prefetch(std::uint64_t sector, std::uint32_t count,
                ftl::PrefetchStage stage) const override {
    log.push_back((stage == ftl::PrefetchStage::kMap ? "map" : "target") +
                  std::to_string(sector));
    CgmFtl::prefetch(sector, count, stage);
  }
  mutable std::vector<std::string> log;
};

TEST(Driver, HintsRunTwoAheadAndLegsSubmitInStreamOrder) {
  nand::NandDevice dev(tiny_geo());
  ftl::CgmFtl::Config cfg;
  cfg.logical_sectors = 2048;
  RecordingFtl ftl(dev, cfg);
  Driver driver(ftl, dev);
  std::vector<Request> reqs = writes(5);
  reqs[3].type = Request::Type::kRead;
  CountingSource src(std::move(reqs));

  // Warmup leg of two requests, then the measured leg to the end: each
  // leg hints only requests it submits itself.
  EXPECT_EQ(driver.run(src, true, 2).requests, 2u);
  EXPECT_EQ(src.pulls, 2u);
  EXPECT_EQ(ftl.log, (std::vector<std::string>{"target4", "w0", "w4"}));
  ftl.log.clear();
  EXPECT_EQ(driver.run(src, true).requests, 3u);
  EXPECT_EQ(src.pulls, 6u);
  EXPECT_EQ(ftl.log, (std::vector<std::string>{"map16", "target12", "w8",
                                               "target16", "r12", "w16"}));
  EXPECT_EQ(driver.verify_failures(), 0u);
}

TEST(Driver, ReadAheadLeavesTheSubmittedStateUnchanged) {
  // run() over a stream equals submitting the same requests one by one:
  // same clocks, histograms, shadow map and FTL state.
  workload::SyntheticParams params;
  params.footprint_sectors = 2048;
  params.request_count = 400;
  params.read_fraction = 0.3;
  params.trim_fraction = 0.05;
  params.seed = 9;
  DriverFixture ran, submitted;
  workload::SyntheticWorkload a(params), b(params);
  ran.driver->run(a, true, 150);
  ran.driver->run(a, true);
  while (const auto r = b.next()) submitted.driver->submit(*r, true);

  // Device and driver archives plus the FTL's simulated counters (its
  // maint_*_ns fields are host wall clocks).
  const auto bytes = [](const DriverFixture& fx) {
    std::stringstream os;
    util::StateWriter w(os);
    fx.driver->save_state(w);
    fx.dev.save_state(w);
    ftl::FtlStats stats = fx.ftl->stats();
    stats.maint_retention_ns = stats.maint_wear_level_ns =
        stats.maint_release_idle_ns = stats.maint_gc_ns = 0;
    ftl::save_stats(w, stats);
    return os.str();
  };
  EXPECT_EQ(bytes(ran), bytes(submitted));
  EXPECT_EQ(ran.driver->verify_failures(), 0u);
}

}  // namespace
}  // namespace esp::sim
