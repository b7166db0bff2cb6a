// FTL interface contract: behaviors every implementation must share,
// parameterized over all four FTLs.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "core/ssd.h"
#include "ftl/hintless_ftl.h"
#include "telemetry/journal.h"
#include "telemetry/telemetry.h"
#include "test_common.h"
#include "util/serialize.h"
#include "workload/splitter.h"
#include "workload/synthetic.h"

namespace esp {
namespace {

using core::FtlKind;
using workload::Request;

class FtlContract : public ::testing::TestWithParam<FtlKind> {
 protected:
  core::Ssd ssd_{test::tiny_config(GetParam())};
};

TEST_P(FtlContract, NameAndCapacityExposed) {
  EXPECT_FALSE(ssd_.ftl().name().empty());
  EXPECT_GT(ssd_.ftl().logical_sectors(), 0u);
  EXPECT_GT(ssd_.ftl().mapping_memory_bytes(), 0u);
}

TEST_P(FtlContract, WriteThenReadReturnsLatestVersion) {
  auto& drv = ssd_.driver();
  drv.submit({Request::Type::kWrite, 8, 4, true, 0.0});
  drv.submit({Request::Type::kWrite, 9, 1, true, 0.0});  // overwrite middle
  drv.submit({Request::Type::kRead, 8, 4, false, 0.0});
  EXPECT_EQ(drv.verify_failures(), 0u);
}

TEST_P(FtlContract, FlushIsIdempotent) {
  auto& drv = ssd_.driver();
  drv.submit({Request::Type::kWrite, 0, 2, false, 0.0});
  drv.flush();
  const auto progs =
      ssd_.ftl().stats().flash_prog_full + ssd_.ftl().stats().flash_prog_sub;
  drv.flush();
  drv.flush();
  EXPECT_EQ(ssd_.ftl().stats().flash_prog_full +
                ssd_.ftl().stats().flash_prog_sub,
            progs);
}

TEST_P(FtlContract, SyncWritesAreDurableImmediately) {
  auto& drv = ssd_.driver();
  drv.submit({Request::Type::kWrite, 16, 1, true, 0.0});
  // Durable = on flash, not just buffered.
  EXPECT_GT(ssd_.ftl().stats().flash_prog_full +
                ssd_.ftl().stats().flash_prog_sub,
            0u);
}

TEST_P(FtlContract, AlignedTrimThenReadIsEmpty) {
  auto& drv = ssd_.driver();
  drv.submit({Request::Type::kWrite, 0, 4, true, 0.0});
  drv.submit({Request::Type::kTrim, 0, 4, false, 0.0});
  drv.submit({Request::Type::kRead, 0, 4, false, 0.0});
  EXPECT_EQ(drv.verify_failures(), 0u);  // driver expects empty after trim
}

TEST_P(FtlContract, RewriteAfterTrimWorks) {
  auto& drv = ssd_.driver();
  drv.submit({Request::Type::kWrite, 0, 4, true, 0.0});
  drv.submit({Request::Type::kTrim, 0, 4, false, 0.0});
  drv.submit({Request::Type::kWrite, 1, 1, true, 0.0});
  drv.submit({Request::Type::kRead, 0, 4, false, 0.0});
  EXPECT_EQ(drv.verify_failures(), 0u);
}

TEST_P(FtlContract, OutOfRangeAccessesThrow) {
  auto& ftl = ssd_.ftl();
  const auto sectors = ftl.logical_sectors();
  EXPECT_THROW(ftl.write(sectors, 1, false, 0.0), std::out_of_range);
  EXPECT_THROW(ftl.write(sectors - 1, 2, false, 0.0), std::out_of_range);
  EXPECT_THROW(ftl.read(sectors, 1, 0.0, nullptr), std::out_of_range);
  EXPECT_THROW(ftl.write(0, 0, false, 0.0), std::out_of_range);
  EXPECT_THROW(ftl.trim(sectors, 1), std::out_of_range);
}

TEST_P(FtlContract, CompletionTimesAreCausal) {
  auto& ftl = ssd_.ftl();
  const auto first = ftl.write(0, 4, true, 1000.0);
  EXPECT_GT(first.done, 1000.0);
  const auto second = ftl.write(4, 4, true, first.done);
  EXPECT_GT(second.done, first.done);
}

TEST_P(FtlContract, StatsAreMonotone) {
  auto& drv = ssd_.driver();
  const auto before = ssd_.ftl().stats();
  drv.submit({Request::Type::kWrite, 0, 4, true, 0.0});
  drv.submit({Request::Type::kRead, 0, 4, false, 0.0});
  const auto after = ssd_.ftl().stats();
  EXPECT_GE(after.host_write_requests, before.host_write_requests + 1);
  EXPECT_GE(after.host_read_requests, before.host_read_requests + 1);
  // Delta must not underflow anywhere.
  const auto delta = ftl::stats_delta(after, before);
  EXPECT_LE(delta.host_write_requests, 10u);
}

std::string ftl_archive(const ftl::Ftl& ftl) {
  std::stringstream os;
  util::StateWriter w(os);
  ftl.save_state(w);
  return os.str();
}

TEST_P(FtlContract, HintsOnAnyRangeThrowNothingAndChangeNothing) {
  auto& drv = ssd_.driver();
  const std::uint64_t n = ssd_.ftl().logical_sectors();
  for (std::uint64_t i = 0; i < 200; ++i)
    drv.submit({Request::Type::kWrite, (i * 37) % (n - 4),
                static_cast<std::uint32_t>(1 + i % 4), i % 3 != 0, 0.0});
  const std::string before = ftl_archive(ssd_.ftl());
  const std::pair<std::uint64_t, std::uint32_t> ranges[] = {
      {0, 0},      {n - 1, 0}, {0, 1},         {n - 1, 1},
      {n - 4, 4},  {n - 1, 2}, {n, 1},         {n + 7, 3},
      {0, ~0u},    {~0ull, 1}, {~0ull - 1, ~0u}};
  for (const auto& [sector, count] : ranges)
    for (const auto stage :
         {ftl::PrefetchStage::kMap, ftl::PrefetchStage::kTarget})
      EXPECT_NO_THROW(ssd_.ftl().prefetch(sector, count, stage))
          << sector << "+" << count;
  EXPECT_EQ(ftl_archive(ssd_.ftl()), before);

  // The driver hints a queued out-of-range request like any other; its
  // submission is still what rejects it.
  workload::VectorSource src({{Request::Type::kRead, 0, 4, false, 0.0},
                              {Request::Type::kWrite, 8, 4, true, 0.0},
                              {Request::Type::kRead, n - 1, 2, false, 0.0}});
  EXPECT_THROW(drv.run(src), std::out_of_range);
  EXPECT_EQ(drv.verify_failures(), 0u);
}

/// Journal bytes, then device and driver archives and the FTL's simulated
/// counters (maint_*_ns are host wall clocks), of one seeded stream run
/// over the bare FTL (`hinted`) or through HintlessFtl.
std::pair<std::string, std::string> run_stream(FtlKind kind, bool hinted) {
  const core::SsdConfig cfg = test::tiny_config(kind);
  telemetry::Telemetry tel;
  std::ostringstream journal_os;
  telemetry::JournalHeader hdr;
  hdr.ftl = core::ftl_kind_name(kind);
  hdr.chips = cfg.geometry.total_chips();
  hdr.blocks_per_chip = cfg.geometry.blocks_per_chip;
  hdr.pages_per_block = cfg.geometry.pages_per_block;
  hdr.subpages_per_page = cfg.geometry.subpages_per_page;
  hdr.page_bytes = cfg.geometry.page_bytes;
  telemetry::Journal journal(journal_os, hdr);
  tel.set_journal(&journal);

  core::Ssd ssd(cfg);
  ftl::HintlessFtl blind(ssd.ftl());
  std::optional<sim::Driver> blind_driver;
  sim::Driver* drv = &ssd.driver();
  if (!hinted)
    drv = &blind_driver.emplace(blind, ssd.device(), cfg.queue_depth);
  ssd.device().set_telemetry(&tel);
  ssd.ftl().set_telemetry(&tel);
  drv->set_telemetry(&tel);

  workload::SyntheticParams params;
  params.footprint_sectors = ssd.ftl().logical_sectors();
  params.request_count = 6000;
  params.r_small = 0.8;
  params.r_synch = 0.7;
  params.read_fraction = 0.3;
  params.trim_fraction = 0.02;
  params.seed = 23;
  workload::SyntheticWorkload stream(params);
  EXPECT_EQ(drv->run(stream, true, 2500).requests, 2500u);
  const sim::RunMetrics m = drv->run(stream, true);
  EXPECT_EQ(m.requests, 3500u);
  EXPECT_EQ(m.verify_failures, 0u);
  EXPECT_GT(m.ftl_stats.gc_invocations, 0u) << "stream too light for GC";
  journal.finish();

  std::stringstream os;
  util::StateWriter w(os);
  ssd.device().save_state(w);
  drv->save_state(w);
  ftl::FtlStats stats = ssd.ftl().stats();
  stats.maint_retention_ns = stats.maint_wear_level_ns =
      stats.maint_release_idle_ns = stats.maint_gc_ns = 0;
  ftl::save_stats(w, stats);
  return {journal_os.str(), os.str()};
}

TEST_P(FtlContract, DroppingHintsChangesNoJournalStatsOrState) {
  const auto hinted = run_stream(GetParam(), true);
  const auto blind = run_stream(GetParam(), false);
  ASSERT_FALSE(hinted.first.empty());
  EXPECT_EQ(hinted.first, blind.first) << "journals differ";
  EXPECT_EQ(hinted.second, blind.second) << "archives or stats differ";
}

INSTANTIATE_TEST_SUITE_P(AllFtls, FtlContract,
                         ::testing::Values(FtlKind::kCgm, FtlKind::kFgm,
                                           FtlKind::kSub,
                                           FtlKind::kSectorLog),
                         [](const auto& info) {
                           return core::ftl_kind_name(info.param);
                         });

}  // namespace
}  // namespace esp
