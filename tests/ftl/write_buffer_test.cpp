#include "ftl/write_buffer.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace esp::ftl {
namespace {

TEST(WriteBuffer, InsertAndLookup) {
  WriteBuffer buf(8);
  EXPECT_FALSE(buf.insert(5, 100, true));
  std::uint64_t token = 0;
  EXPECT_TRUE(buf.lookup(5, &token));
  EXPECT_EQ(token, 100u);
  EXPECT_FALSE(buf.lookup(6, &token));
}

TEST(WriteBuffer, OverwriteReportsHit) {
  WriteBuffer buf(8);
  buf.insert(5, 100, true);
  EXPECT_TRUE(buf.insert(5, 200, false));
  std::uint64_t token = 0;
  buf.lookup(5, &token);
  EXPECT_EQ(token, 200u);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(WriteBuffer, ExtractRunReturnsContiguousSorted) {
  WriteBuffer buf(16);
  for (const std::uint64_t s : {3, 5, 4, 7, 10}) buf.insert(s, s * 10, true);
  std::vector<BufferedSector> run;
  buf.extract_run(4, run);
  ASSERT_EQ(run.size(), 3u);
  EXPECT_EQ(run[0].sector, 3u);
  EXPECT_EQ(run[1].sector, 4u);
  EXPECT_EQ(run[2].sector, 5u);
  EXPECT_EQ(run[1].token, 40u);
  // Extracted entries are gone; others remain.
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_TRUE(buf.lookup(7, nullptr));
}

TEST(WriteBuffer, ExtractRunMissingSectorEmpty) {
  WriteBuffer buf(8);
  buf.insert(1, 1, true);
  std::vector<BufferedSector> run{{9, 9, false}};  // stale contents
  buf.extract_run(5, run);
  EXPECT_TRUE(run.empty());
  EXPECT_EQ(buf.size(), 1u);
}

TEST(WriteBuffer, ExtractRunAtSectorZero) {
  WriteBuffer buf(8);
  buf.insert(0, 7, true);
  buf.insert(1, 8, true);
  std::vector<BufferedSector> run;
  buf.extract_run(0, run);
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run[0].sector, 0u);
}

TEST(WriteBuffer, OldestRunIsLeastRecentlyWritten) {
  WriteBuffer buf(16);
  buf.insert(100, 1, true);
  buf.insert(200, 2, true);
  buf.insert(100, 3, true);  // refresh 100: now 200 is oldest
  std::vector<BufferedSector> run;
  buf.extract_oldest_run(run);
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(run[0].sector, 200u);
}

TEST(WriteBuffer, OldestRunIncludesNeighbors) {
  WriteBuffer buf(16);
  buf.insert(50, 1, true);
  buf.insert(51, 2, true);
  buf.insert(90, 3, true);
  std::vector<BufferedSector> run;
  buf.extract_oldest_run(run);
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run[0].sector, 50u);
  EXPECT_EQ(run[1].sector, 51u);
}

TEST(WriteBuffer, OverCapacityFlag) {
  WriteBuffer buf(2);
  buf.insert(1, 1, true);
  buf.insert(2, 2, true);
  EXPECT_FALSE(buf.over_capacity());
  buf.insert(3, 3, true);
  EXPECT_TRUE(buf.over_capacity());
}

TEST(WriteBuffer, ReservedSectorRejected) {
  WriteBuffer buf(8);
  EXPECT_THROW(buf.insert(WriteBuffer::kReservedSector, 1, true),
               std::invalid_argument);
  EXPECT_TRUE(buf.empty());
  EXPECT_FALSE(buf.lookup(WriteBuffer::kReservedSector, nullptr));
}

TEST(WriteBuffer, EraseDropsEntry) {
  WriteBuffer buf(8);
  buf.insert(5, 1, true);
  EXPECT_TRUE(buf.erase(5));
  EXPECT_FALSE(buf.erase(5));
  EXPECT_FALSE(buf.lookup(5, nullptr));
}

TEST(WriteBuffer, DrainReturnsEverythingOnce) {
  WriteBuffer buf(16);
  for (std::uint64_t s = 0; s < 10; s += 2) buf.insert(s, s, s % 4 == 0);
  // Draining is repeated oldest-run extraction into one reused vector.
  std::vector<BufferedSector> all;
  std::vector<BufferedSector> run;
  for (buf.extract_oldest_run(run); !run.empty(); buf.extract_oldest_run(run))
    all.insert(all.end(), run.begin(), run.end());
  EXPECT_EQ(all.size(), 5u);
  EXPECT_TRUE(buf.empty());
  buf.extract_oldest_run(run);
  EXPECT_TRUE(run.empty());
}

TEST(WriteBuffer, SmallFlagPreserved) {
  WriteBuffer buf(8);
  buf.insert(1, 10, true);
  buf.insert(2, 20, false);
  std::vector<BufferedSector> run;
  buf.extract_run(1, run);
  ASSERT_EQ(run.size(), 2u);
  EXPECT_TRUE(run[0].small);
  EXPECT_FALSE(run[1].small);
}

TEST(WriteBuffer, StaleAgeLogEntriesSkipped) {
  WriteBuffer buf(8);
  buf.insert(1, 1, true);
  buf.insert(2, 2, true);
  std::vector<BufferedSector> run;
  buf.extract_run(1, run);  // removes 1 and 2
  buf.insert(3, 3, true);
  buf.extract_oldest_run(run);  // must skip stale 1, 2
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(run[0].sector, 3u);
}

TEST(WriteBuffer, PageGroupPullsWholePages) {
  WriteBuffer buf(16);
  // lpn 0 has sectors {1, 3}; lpn 1 has {4}; lpn 3 has {12} (gap at lpn 2).
  for (const std::uint64_t s : {1, 3, 4, 12}) buf.insert(s, s, true);
  std::vector<BufferedSector> group;
  buf.extract_page_group(3, 4, group);
  ASSERT_EQ(group.size(), 3u);  // lpns 0 and 1 chain; lpn 3 does not
  EXPECT_EQ(group[0].sector, 1u);
  EXPECT_EQ(group[1].sector, 3u);
  EXPECT_EQ(group[2].sector, 4u);
  EXPECT_TRUE(buf.lookup(12, nullptr));
}

TEST(WriteBuffer, PageGroupOfMissingSectorIsEmpty) {
  WriteBuffer buf(8);
  buf.insert(0, 1, true);
  std::vector<BufferedSector> group;
  buf.extract_page_group(9, 4, group);
  EXPECT_TRUE(group.empty());
}

TEST(WriteBuffer, OldestPageGroupFollowsAge) {
  WriteBuffer buf(16);
  buf.insert(40, 1, true);  // lpn 10, oldest
  buf.insert(80, 2, true);  // lpn 20
  buf.insert(41, 3, true);  // lpn 10 again (same page as oldest)
  std::vector<BufferedSector> group;
  buf.extract_oldest_page_group(4, group);
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(group[0].sector, 40u);
  EXPECT_EQ(group[1].sector, 41u);
}

TEST(WriteBuffer, PageGroupSortedWithinAndAcrossPages) {
  WriteBuffer buf(16);
  for (const std::uint64_t s : {7, 5, 6, 4, 3, 0}) buf.insert(s, s, true);
  std::vector<BufferedSector> group;
  buf.extract_page_group(5, 4, group);
  ASSERT_EQ(group.size(), 6u);
  for (std::size_t i = 1; i < group.size(); ++i)
    EXPECT_LT(group[i - 1].sector, group[i].sector);
}

TEST(WriteBuffer, AgeLogBoundedUnderHotOverwrites) {
  // One hot sector rewritten a million times never leaves the buffer, so
  // the age log cannot rely on lazy front-pruning; compaction must keep it
  // proportional to the LIVE entry count.
  WriteBuffer buf(64);
  for (std::uint64_t i = 0; i < 1'000'000; ++i) buf.insert(42, i + 1, true);
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_LE(buf.age_log_size(), 2 * buf.size() + 16 + 1);
  // LRU order survives compaction: an older cold sector still drains first.
  buf.insert(7, 1, true);
  for (std::uint64_t i = 0; i < 100; ++i) buf.insert(42, i, true);
  std::vector<BufferedSector> oldest;
  buf.extract_oldest_run(oldest);
  ASSERT_EQ(oldest.size(), 1u);
  EXPECT_EQ(oldest[0].sector, 7u);
}

}  // namespace
}  // namespace esp::ftl
