// Device-level tests: retention verdicts, timing/parallelism, counters,
// fault injection.
#include "nand/device.h"

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/serialize.h"

namespace esp::nand {
namespace {

Geometry tiny_geo() {
  Geometry geo;
  geo.channels = 2;
  geo.chips_per_channel = 2;
  geo.blocks_per_chip = 4;
  geo.pages_per_block = 8;
  geo.page_bytes = 16 * 1024;
  geo.subpages_per_page = 4;
  return geo;
}

TEST(NandDevice, ReadBackAfterFullProgram) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{11, 22, 33, 44};
  dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  const auto ack = dev.read_page(PageAddr{0, 0, 0}, 10.0);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(ack.status[s], ReadStatus::kOk);
    EXPECT_EQ(ack.token[s], tokens[s]);
  }
}

TEST(NandDevice, SubpageReadVerdicts) {
  NandDevice dev(tiny_geo());
  const PageAddr page{1, 1, 3};
  dev.program_subpage(SubpageAddr{page, 0}, 7, 0.0);
  dev.program_subpage(SubpageAddr{page, 1}, 8, 1.0);

  EXPECT_EQ(dev.read_subpage(SubpageAddr{page, 0}, 2.0).status,
            ReadStatus::kCorrupted);
  EXPECT_EQ(dev.read_subpage(SubpageAddr{page, 1}, 2.0).status,
            ReadStatus::kOk);
  EXPECT_EQ(dev.read_subpage(SubpageAddr{page, 2}, 2.0).status,
            ReadStatus::kEmpty);
}

TEST(NandDevice, EspDataExpiresAfterHorizon) {
  NandDevice dev(tiny_geo());
  const PageAddr page{0, 0, 0};
  // Program all 4 slots: the last is Npp^3 with the shortest horizon.
  for (std::uint32_t s = 0; s < 4; ++s)
    dev.program_subpage(SubpageAddr{page, s}, s, 0.0);

  const SimTime month = sim_time::kMonth;
  EXPECT_EQ(dev.read_subpage(SubpageAddr{page, 3}, 0.9 * month).status,
            ReadStatus::kOk)
      << "Npp^3 must satisfy the 1-month requirement (Fig. 5)";
  EXPECT_EQ(dev.read_subpage(SubpageAddr{page, 3}, 2.0 * month).status,
            ReadStatus::kUncorrectable)
      << "Npp^3 must fail the 2-month requirement (Fig. 5)";
}

TEST(NandDevice, LowerNppSurvivesLonger) {
  NandDevice dev(tiny_geo());
  dev.program_subpage(SubpageAddr{PageAddr{0, 0, 0}, 0}, 1, 0.0);
  // An Npp^0 ESP subpage lasts far beyond 2 months.
  EXPECT_EQ(dev.read_subpage(SubpageAddr{PageAddr{0, 0, 0}, 0},
                             4 * sim_time::kMonth)
                .status,
            ReadStatus::kOk);
}

TEST(NandDevice, FullPageMeetsOneYear) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  const auto ack =
      dev.read_page(PageAddr{0, 0, 0}, 11.5 * sim_time::kMonth);
  EXPECT_EQ(ack.status[0], ReadStatus::kOk);
  const auto expired =
      dev.read_page(PageAddr{0, 0, 0}, 14.0 * sim_time::kMonth);
  EXPECT_EQ(expired.status[0], ReadStatus::kUncorrectable);
}

TEST(NandDevice, TimingFullProgramLatency) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  const auto ack = dev.program_full(PageAddr{0, 0, 0}, tokens, 1000.0);
  const auto& t = dev.timing();
  EXPECT_DOUBLE_EQ(ack.done,
                   1000.0 + t.transfer_us(16 * 1024) + t.prog_full_us);
}

TEST(NandDevice, SubpageProgramFasterThanFull) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  const auto full = dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  const auto sub =
      dev.program_subpage(SubpageAddr{PageAddr{1, 0, 0}, 0}, 9, 0.0);
  // Paper Sec. 5: 1300 us vs 1600 us, plus smaller transfer.
  EXPECT_LT(sub.done, full.done);
}

TEST(NandDevice, SameChipOperationsSerialize) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  const auto first = dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  const auto second = dev.program_full(PageAddr{0, 0, 1}, tokens, 0.0);
  EXPECT_GE(second.done, first.done + dev.timing().prog_full_us);
}

TEST(NandDevice, DifferentChannelsOverlap) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  // Chips 0 and 2 are on different channels in this geometry.
  const auto a = dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  const auto b = dev.program_full(PageAddr{2, 0, 0}, tokens, 0.0);
  EXPECT_NEAR(a.done, b.done, 1e-9);
}

TEST(NandDevice, SameChannelTransfersContend) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  // Chips 0 and 1 share channel 0: second transfer waits for the first.
  const auto a = dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  const auto b = dev.program_full(PageAddr{1, 0, 0}, tokens, 0.0);
  EXPECT_GT(b.done, a.done - dev.timing().prog_full_us + 1.0);
  EXPECT_LT(b.done, a.done + dev.timing().prog_full_us);
}

TEST(NandDevice, CountersTrackOperations) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  dev.program_subpage(SubpageAddr{PageAddr{0, 1, 0}, 0}, 5, 0.0);
  dev.read_page(PageAddr{0, 0, 0}, 1.0);
  dev.read_subpage(SubpageAddr{PageAddr{0, 1, 0}, 0}, 1.0);
  dev.erase_block(0, 0, 2.0);
  const auto& c = dev.counters();
  EXPECT_EQ(c.progs_full, 1u);
  EXPECT_EQ(c.progs_sub, 1u);
  EXPECT_EQ(c.reads_full, 1u);
  EXPECT_EQ(c.reads_sub, 1u);
  EXPECT_EQ(c.erases, 1u);
}

TEST(NandDevice, EraseRestoresProgrammability) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  dev.erase_block(0, 0, 1.0);
  EXPECT_EQ(dev.pe_cycles(0, 0), 1u);
  EXPECT_NO_THROW(dev.program_full(PageAddr{0, 0, 0}, tokens, 2.0));
}

TEST(NandDevice, FaultInjectionProducesUncorrectableReads) {
  NandDevice dev(tiny_geo());
  dev.set_read_fault_injection(1.0, 99);
  dev.program_subpage(SubpageAddr{PageAddr{0, 0, 0}, 0}, 5, 0.0);
  EXPECT_EQ(dev.read_subpage(SubpageAddr{PageAddr{0, 0, 0}, 0}, 1.0).status,
            ReadStatus::kUncorrectable);
  dev.set_read_fault_injection(0.0);
  EXPECT_EQ(dev.read_subpage(SubpageAddr{PageAddr{0, 0, 0}, 0}, 1.0).status,
            ReadStatus::kOk);
}

TEST(NandDevice, CopybackMovesDataOnChip) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{9, 8, 7, 6};
  dev.program_full(PageAddr{1, 0, 0}, tokens, 0.0);
  dev.copyback(PageAddr{1, 0, 0}, PageAddr{1, 1, 0}, 10.0);
  const auto ack = dev.read_page(PageAddr{1, 1, 0}, 20.0);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(ack.token[s], tokens[s]);
    EXPECT_EQ(ack.status[s], ReadStatus::kOk);
  }
}

TEST(NandDevice, CopybackRejectsCrossChip) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  EXPECT_THROW(dev.copyback(PageAddr{0, 0, 0}, PageAddr{1, 0, 0}, 1.0),
               std::logic_error);
}

TEST(NandDevice, CopybackSkipsChannelTransfers) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  const SimTime start = 100000.0;
  const auto cb = dev.copyback(PageAddr{0, 0, 0}, PageAddr{0, 1, 0}, start);
  const auto& t = dev.timing();
  // Sense + program + command overhead, but no 16-KB transfers.
  EXPECT_NEAR(cb.done - start,
              t.read_full_us + t.prog_full_us + t.cmd_overhead_us, 1e-9);
}

TEST(NandDevice, CopybackRequiresErasedDestination) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  dev.program_full(PageAddr{0, 1, 0}, tokens, 0.0);
  EXPECT_THROW(dev.copyback(PageAddr{0, 0, 0}, PageAddr{0, 1, 0}, 1.0),
               std::logic_error);
}

TEST(NandDevice, OutOfRangeThrows) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  EXPECT_THROW(dev.program_full(PageAddr{99, 0, 0}, tokens, 0.0),
               std::out_of_range);
  EXPECT_THROW(dev.erase_block(0, 99, 0.0), std::out_of_range);
}

// Loud snapshot limits: the slot store archives each block's per-slot state
// and Npp type (format v1) but derives them from the page's mode and
// program count, so a load must reject an archive that disagrees.
class SnapshotLimits : public ::testing::Test {
 protected:
  void SetUp() override {
    // Block (0, 0), page 0: two ESP programs (slot 0 corrupted, slot 1 an
    // Npp^1 subpage); page 1 stays erased.
    dev_.program_subpage(SubpageAddr{PageAddr{0, 0, 0}, 0}, 7, 1.0);
    dev_.program_subpage(SubpageAddr{PageAddr{0, 0, 0}, 1}, 8, 2.0);
    std::ostringstream os;
    util::StateWriter w(os);
    dev_.save_state(w);
    bytes_ = os.str();
  }

  // Offsets into block (0, 0)'s "BLK0" section: "NAND" tag + block count,
  // then tag, pages, subs, P/E, programmed pages, first-program time, then
  // the length-prefixed mode / programmed / state / npp arrays.
  static constexpr std::size_t kPages = 8;
  static constexpr std::size_t kSubs = 4;
  static constexpr std::size_t kMode = 4 + 8 + 4 + 4 * 4 + 8 + 8;
  static constexpr std::size_t kProgrammed = kMode + kPages + 8;
  static constexpr std::size_t kState = kProgrammed + kPages + 8;
  static constexpr std::size_t kNpp = kState + kPages * kSubs + 8;
  static constexpr std::size_t kToken = kNpp + kPages * kSubs + 8;
  static constexpr std::size_t kWrittenAt = kToken + kPages * kSubs * 8 + 8;
  // The header's programmed-page count: before the first-program time and
  // the mode array's length prefix.
  static constexpr std::size_t kHeaderProgrammed = kMode - 8 - 8 - 4;

  void expect_rejected(const std::string& bytes, const std::string& what) {
    NandDevice fresh(tiny_geo());
    std::istringstream is(bytes);
    util::StateReader r(is);
    try {
      fresh.load_state(r);
      FAIL() << "load_state accepted a corrupt BLK0 section";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  }

  NandDevice dev_{tiny_geo()};
  std::string bytes_;
};

TEST_F(SnapshotLimits, IntactArchiveRoundTrips) {
  ASSERT_EQ(bytes_[kMode], static_cast<char>(PageMode::kEsp));
  ASSERT_EQ(bytes_[kToken + 1 * 8], 8);  // page 0, slot 1
  ASSERT_EQ(bytes_[kWrittenAt + 1 * 8 + 7], 0x40);  // 2.0, little-endian
  ASSERT_EQ(bytes_[kProgrammed], 2);
  ASSERT_EQ(bytes_[kState], static_cast<char>(SlotState::kCorrupted));
  ASSERT_EQ(bytes_[kNpp + 1], 1);
  NandDevice fresh(tiny_geo());
  std::istringstream is(bytes_);
  util::StateReader r(is);
  fresh.load_state(r);
  EXPECT_EQ(fresh.slots_programmed(PageAddr{0, 0, 0}), 2u);
}

TEST_F(SnapshotLimits, RejectsStateDisagreeingWithProgramCount) {
  std::string bad = bytes_;
  bad[kState] = static_cast<char>(SlotState::kStored);  // was corrupted
  expect_rejected(bad, "slot state disagrees");
}

TEST_F(SnapshotLimits, RejectsNppDisagreeingWithSlot) {
  std::string bad = bytes_;
  bad[kNpp + 1] = 3;  // slot 1 of page 0 is an Npp^1 subpage
  expect_rejected(bad, "npp disagrees");
}

TEST_F(SnapshotLimits, RejectsProgrammedCountAboveSubpages) {
  std::string bad = bytes_;
  bad[kMode + 1] = static_cast<char>(PageMode::kEsp);  // page 1
  bad[kProgrammed + 1] = static_cast<char>(kSubs + 1);
  expect_rejected(bad, "programmed count above subpages_per_page");
}

TEST_F(SnapshotLimits, RejectsUnknownPageMode) {
  std::string bad = bytes_;
  bad[kMode + 1] = 7;
  expect_rejected(bad, "unknown page mode");
}

TEST_F(SnapshotLimits, RejectsEspPageWithoutPrograms) {
  std::string bad = bytes_;
  bad[kMode + 1] = static_cast<char>(PageMode::kEsp);  // page 1, count 0
  expect_rejected(bad, "page mode and programmed count disagree");
}

TEST_F(SnapshotLimits, RejectsFullPageCountingTooFewSlots) {
  std::string bad = bytes_;
  bad[kMode] = static_cast<char>(PageMode::kFull);  // page 0, count 2
  expect_rejected(bad, "page mode and programmed count disagree");
}

TEST_F(SnapshotLimits, RejectsHeaderDisagreeingWithPageModes) {
  ASSERT_EQ(bytes_[kHeaderProgrammed], 1);
  std::string bad = bytes_;
  bad[kHeaderProgrammed] = 2;  // only page 0 is programmed
  expect_rejected(bad, "programmed page count disagrees");
}

TEST_F(SnapshotLimits, RejectsTokenInUnprogrammedSlot) {
  std::string bad = bytes_;
  bad[kToken + kSubs * 8] = 1;  // page 1 (erased), slot 0
  expect_rejected(bad, "unprogrammed slot holds a token");
}

TEST_F(SnapshotLimits, RejectsProgramTimeInUnprogrammedSlot) {
  std::string bad = bytes_;
  bad[kWrittenAt + kSubs * 8] = 1;  // page 1 (erased), slot 0
  expect_rejected(bad, "unprogrammed slot holds a program time");
}

}  // namespace
}  // namespace esp::nand
