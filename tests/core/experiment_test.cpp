// ExperimentRunner tests: window isolation (warmup excluded), derived
// metrics, footprint defaulting, loud sidecar failures.
#include "core/experiment.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>

#include "test_common.h"

namespace esp::core {
namespace {

ExperimentSpec base_spec() {
  ExperimentSpec spec;
  spec.ssd = test::tiny_config(FtlKind::kSub);
  spec.precondition_fraction = 0.7;
  spec.workload.request_count = 3000;
  spec.workload.r_small = 1.0;
  spec.workload.r_synch = 1.0;
  spec.workload.small_footprint_fraction = 0.2;
  spec.workload.seed = 11;
  return spec;
}

TEST(Experiment, FootprintDefaultsToPreconditionedRange) {
  auto spec = base_spec();
  ASSERT_EQ(spec.workload.footprint_sectors, 0u);
  const auto result = run_experiment(spec);
  EXPECT_EQ(result.verify_failures, 0u);
  EXPECT_GT(result.iops, 0.0);
  EXPECT_GT(result.host_mb_per_sec, 0.0);
}

TEST(Experiment, WarmupExcludedFromWindow) {
  auto spec = base_spec();
  spec.workload.request_count = 4000;
  spec.warmup_requests = 3000;
  const auto result = run_experiment(spec);
  // The measured window covers only the post-warmup requests.
  EXPECT_EQ(result.raw.requests, 1000u);
  EXPECT_EQ(result.raw.ftl_stats.host_write_requests +
                result.raw.ftl_stats.host_read_requests,
            1000u);
}

TEST(Experiment, WindowStatsConsistentWithBudget) {
  auto spec = base_spec();
  spec.workload.read_fraction = 0.0;
  const auto result = run_experiment(spec);
  // All-write small workload: window host sectors == request count.
  EXPECT_EQ(result.raw.ftl_stats.host_write_sectors, 3000u);
  EXPECT_GE(result.small_request_waf, 0.9);
  EXPECT_GE(result.overall_waf, 0.9);
}

TEST(Experiment, MappingBytesReported) {
  auto spec = base_spec();
  const auto result = run_experiment(spec);
  EXPECT_GT(result.mapping_bytes, 0u);
}

TEST(Experiment, DeterministicForSameSpec) {
  const auto a = run_experiment(base_spec());
  const auto b = run_experiment(base_spec());
  EXPECT_DOUBLE_EQ(a.iops, b.iops);
  EXPECT_EQ(a.gc_invocations, b.gc_invocations);
  EXPECT_EQ(a.erases, b.erases);
}

TEST(Experiment, DifferentSeedsDiffer) {
  auto spec = base_spec();
  spec.workload.seed = 12;
  const auto a = run_experiment(base_spec());
  const auto b = run_experiment(spec);
  EXPECT_NE(a.iops, b.iops);
}

// A sidecar that cannot be opened fails the run loudly, naming the stream
// and the path -- unsharded, and from a shard leaf's `.shard<i>` path.
struct SidecarCase {
  const char* stream;
  std::string ExperimentSpec::*path;
};

class SidecarFailure
    : public ::testing::TestWithParam<std::tuple<SidecarCase, unsigned>> {};

TEST_P(SidecarFailure, UnwritablePathThrowsNamingStreamAndPath) {
  const auto [sidecar, shards] = GetParam();
  auto spec = base_spec();
  spec.workload.request_count = 200;
  spec.shards = shards;
  // The file name does not repeat the stream name: the message must.
  const std::string stem = ::testing::TempDir() + "no-such-dir/sidecar";
  spec.*sidecar.path = stem + ".jsonl";
  try {
    run_experiment(spec);
    FAIL() << "run_experiment accepted an unwritable " << sidecar.stream
           << " sidecar";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(sidecar.stream), std::string::npos) << what;
    EXPECT_NE(what.find(shards > 1 ? stem + ".shard" : stem + ".jsonl"),
              std::string::npos)
        << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, SidecarFailure,
    ::testing::Combine(
        ::testing::Values(
            SidecarCase{"journal", &ExperimentSpec::journal_path},
            SidecarCase{"health", &ExperimentSpec::health_path},
            SidecarCase{"forensics", &ExperimentSpec::forensics_path}),
        ::testing::Values(1u, 2u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).stream) + "_shards" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace esp::core
