// subFTL unit tests: data placement, ESP writing policy effects, hot/cold
// GC, extended-mapping resolution, request WAF ~= 1.
#include "ftl/sub_ftl.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "ftl/types.h"
#include "nand/device.h"

namespace esp::ftl {
namespace {

nand::Geometry tiny_geo() {
  nand::Geometry geo;
  geo.channels = 2;
  geo.chips_per_channel = 2;
  geo.blocks_per_chip = 16;
  geo.pages_per_block = 16;
  geo.page_bytes = 16 * 1024;
  geo.subpages_per_page = 4;
  return geo;
}

struct SubFixture {
  explicit SubFixture(double region_fraction = 0.20) : dev(tiny_geo()) {
    SubFtl::Config cfg;
    cfg.logical_sectors = 2048;  // 8 MiB logical vs 64 MiB physical
    cfg.subpage_region_fraction = region_fraction;
    cfg.gc_reserve_blocks = 4;
    cfg.buffer_sectors = 32;
    ftl = std::make_unique<SubFtl>(dev, cfg);
  }
  nand::NandDevice dev;
  std::unique_ptr<SubFtl> ftl;
};

TEST(SubFtl, SyncSmallWriteUsesSubpageProgram) {
  SubFixture fx;
  fx.ftl->write(0, 1, true, 0.0);
  EXPECT_EQ(fx.ftl->stats().flash_prog_sub, 1u);
  EXPECT_EQ(fx.ftl->stats().flash_prog_full, 0u);
  EXPECT_EQ(fx.ftl->subpage_mapping_entries(), 1u);
}

TEST(SubFtl, SmallRequestWafIsOne) {
  SubFixture fx;
  // The paper's Table 1: request WAF of small writes ~= 1.0.
  for (std::uint64_t s = 0; s < 64; s += 4)
    fx.ftl->write(s + (s % 3), 1, true, 0.0);
  EXPECT_DOUBLE_EQ(fx.ftl->stats().avg_small_request_waf(), 1.0);
}

TEST(SubFtl, AlignedFullPageWriteGoesToFullRegion) {
  SubFixture fx;
  fx.ftl->write(0, 4, true, 0.0);
  EXPECT_EQ(fx.ftl->stats().flash_prog_full, 1u);
  EXPECT_EQ(fx.ftl->stats().flash_prog_sub, 0u);
}

TEST(SubFtl, TwentyKbWriteSplitsSixteenPlusFour) {
  // Paper Sec. 4.1: a 20-KB write sends 16 KB to the full-page region and
  // 4 KB to the subpage region.
  SubFixture fx;
  fx.ftl->write(0, 5, true, 0.0);
  EXPECT_EQ(fx.ftl->stats().flash_prog_full, 1u);
  EXPECT_EQ(fx.ftl->stats().flash_prog_sub, 1u);
}

TEST(SubFtl, MisalignedLargeWriteSplitsEdges) {
  SubFixture fx;
  fx.ftl->write(2, 8, true, 0.0);  // covers lpn0[2,3], lpn1[all], lpn2[0,1]
  EXPECT_EQ(fx.ftl->stats().flash_prog_full, 1u);   // the aligned middle
  EXPECT_EQ(fx.ftl->stats().flash_prog_sub, 4u);    // 2+2 edge sectors
}

TEST(SubFtl, ExtendedMappingPrefersSubpageRegion) {
  SubFixture fx;
  fx.ftl->write(0, 4, true, 0.0);  // full page v1
  fx.ftl->write(1, 1, true, 1.0);  // sector 1 updated into subpage region
  std::vector<std::uint64_t> tokens;
  const auto result = fx.ftl->read(0, 4, 2.0, &tokens);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(tokens[0], make_token(0, 1));
  EXPECT_EQ(tokens[1], make_token(1, 2));  // the subpage-region version
  EXPECT_EQ(tokens[2], make_token(2, 1));
}

TEST(SubFtl, FullPageWriteSupersedesSubpageCopies) {
  SubFixture fx;
  fx.ftl->write(1, 1, true, 0.0);  // subpage-region copy of sector 1
  EXPECT_EQ(fx.ftl->subpage_mapping_entries(), 1u);
  fx.ftl->write(0, 4, true, 1.0);  // full page overwrites all four
  EXPECT_EQ(fx.ftl->subpage_mapping_entries(), 0u);
  std::vector<std::uint64_t> tokens;
  fx.ftl->read(0, 4, 2.0, &tokens);
  EXPECT_EQ(tokens[1], make_token(1, 2));
}

TEST(SubFtl, RewriteMarksSectorHotAndInvalidatesOldSubpage) {
  SubFixture fx;
  fx.ftl->write(3, 1, true, 0.0);
  const auto valid_before = fx.ftl->subpage_pool().valid_sectors();
  fx.ftl->write(3, 1, true, 1.0);
  // Still exactly one live copy.
  EXPECT_EQ(fx.ftl->subpage_pool().valid_sectors(), valid_before);
  std::vector<std::uint64_t> tokens;
  fx.ftl->read(3, 1, 2.0, &tokens);
  EXPECT_EQ(tokens[0], make_token(3, 2));
}

TEST(SubFtl, EspWritingPolicyFillsSlotZeroFirst) {
  SubFixture fx;
  // Distinct sectors, enough to land on several pages of several blocks.
  for (std::uint64_t i = 0; i < 32; ++i)
    fx.ftl->write(i * 4, 1, true, static_cast<SimTime>(i));
  // No page should have more than one programmed slot yet: region capacity
  // in slot-0 alone is blocks*pages >> 32 writes.
  const auto& geo = fx.dev.geometry();
  for (std::uint32_t chip = 0; chip < geo.total_chips(); ++chip)
    for (std::uint32_t blk = 0; blk < geo.blocks_per_chip; ++blk)
      for (std::uint32_t page = 0; page < geo.pages_per_block; ++page)
        EXPECT_LE(fx.dev.slots_programmed(nand::PageAddr{chip, blk, page}),
                  1u);
}

TEST(SubFtl, SubpageChurnStaysInRegionWithWafOne) {
  SubFixture fx;
  SimTime now = 0.0;
  // Heavy re-update of a small hot set (well under region capacity, as in
  // the paper's sizing): many ESP levels get consumed, forwarding and GC
  // kick in, but correctness and WAF~1 must hold.
  for (int round = 0; round < 6000; ++round) {
    const std::uint64_t s = (round * 13) % 32;
    now = fx.ftl->write(s, 1, true, now).done;
  }
  std::vector<std::uint64_t> tokens;
  for (std::uint64_t s = 0; s < 32; ++s) {
    fx.ftl->read(s, 1, now, &tokens);
    EXPECT_NE(tokens[0], 0u) << "sector " << s;
  }
  EXPECT_LT(fx.ftl->stats().avg_small_request_waf(), 1.5);
}

TEST(SubFtl, ColdDataEvictedToFullRegionOnGc) {
  SubFixture fx(/*region_fraction=*/0.10);
  SimTime now = 0.0;
  // Mostly-cold stream: sectors written once each, wide range -> region
  // fills with cold data -> GC must evict to the full-page region.
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t s = (i * 5) % 2000;
    now = fx.ftl->write(s, 1, true, now).done;
  }
  EXPECT_GT(fx.ftl->stats().cold_evictions, 0u);
  // Every written sector (multiples of 5) still readable: eviction
  // preserved the data.
  std::vector<std::uint64_t> tokens;
  for (std::uint64_t s = 0; s < 2000; s += 5 * 19) {
    fx.ftl->read(s, 1, now, &tokens);
    EXPECT_NE(tokens[0], 0u) << "sector " << s;
  }
}

TEST(SubFtl, ForwardingMigratesValidDataAcrossLevels) {
  SubFixture fx(/*region_fraction=*/0.10);
  SimTime now = 0.0;
  // Mix: persistent valid data + churn forces level advancing with
  // forwarding (Fig. 7(c)).
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t s =
        (i % 10 == 0) ? 1500 + (i / 10) % 50  // long-lived entries
                      : (i * 3) % 200;        // churn
    now = fx.ftl->write(s, 1, true, now).done;
  }
  EXPECT_GT(fx.ftl->stats().forward_migrations, 0u);
  std::vector<std::uint64_t> tokens;
  for (std::uint64_t s = 1500; s < 1550; ++s) {
    fx.ftl->read(s, 1, now, &tokens);
    EXPECT_NE(tokens[0], 0u) << "forwarded sector " << s;
  }
}

TEST(SubFtl, BufferedFullRunMergesToFullPage) {
  SubFixture fx;
  for (std::uint64_t s = 0; s < 4; ++s) fx.ftl->write(s, 1, false, 0.0);
  fx.ftl->flush(1.0);
  // Async contiguous sectors merged: one full-page program, no subpages.
  EXPECT_EQ(fx.ftl->stats().flash_prog_full, 1u);
  EXPECT_EQ(fx.ftl->stats().flash_prog_sub, 0u);
}

TEST(SubFtl, TrimDropsBothRegions) {
  SubFixture fx;
  fx.ftl->write(0, 4, true, 0.0);  // full region
  fx.ftl->write(1, 1, true, 1.0);  // sub region shadow
  fx.ftl->trim(0, 4);
  std::vector<std::uint64_t> tokens;
  fx.ftl->read(0, 4, 2.0, &tokens);
  for (const auto t : tokens) EXPECT_EQ(t, 0u);
  EXPECT_EQ(fx.ftl->subpage_mapping_entries(), 0u);
}

TEST(SubFtl, HashBoundedByOneValidSubpagePerPage) {
  SubFixture fx;
  SimTime now = 0.0;
  for (int i = 0; i < 3000; ++i)
    now = fx.ftl->write((i * 11) % 1024, 1, true, now).done;
  const auto& geo = fx.dev.geometry();
  const auto region_pages =
      fx.ftl->subpage_pool().blocks_in_use() * geo.pages_per_block;
  EXPECT_LE(fx.ftl->subpage_mapping_entries(), region_pages);
}

TEST(SubFtl, RejectsImpossibleConfigs) {
  nand::NandDevice dev(tiny_geo());
  SubFtl::Config cfg;
  cfg.logical_sectors = 0;
  EXPECT_THROW(SubFtl(dev, cfg), std::invalid_argument);
  cfg.logical_sectors = 2048;
  cfg.subpage_region_fraction = 0.0;
  EXPECT_THROW(SubFtl(dev, cfg), std::invalid_argument);
  // Logical space that cannot fit in the full-page region.
  cfg.subpage_region_fraction = 0.9;
  cfg.logical_sectors = dev.geometry().total_subpages() / 2;
  EXPECT_THROW(SubFtl(dev, cfg), std::invalid_argument);
}

TEST(SubFtl, SubpageIndexFitCheckRejectsOversizedGeometry) {
  // The per-sector record keeps a 32-bit linear subpage index with ~0u as
  // its "not in the region" sentinel. Checked on the geometry alone: no
  // device of that size is ever built.
  nand::Geometry at_limit;  // 3 * 5 * (17 * 257) * 65537 = 2^32 - 1
  at_limit.channels = 3;
  at_limit.chips_per_channel = 5;
  at_limit.blocks_per_chip = 17 * 257;
  at_limit.pages_per_block = 65537;
  at_limit.page_bytes = 4096;
  at_limit.subpages_per_page = 1;
  ASSERT_EQ(at_limit.total_subpages(), 0xFFFFFFFFull);
  EXPECT_NO_THROW(SubFtl::check_subpage_index_fits(at_limit));

  nand::Geometry over;  // 2^16 blocks * 2^14 pages * 4 subpages = 2^32
  over.channels = 1;
  over.chips_per_channel = 1;
  over.blocks_per_chip = 1u << 16;
  over.pages_per_block = 1u << 14;
  ASSERT_EQ(over.total_subpages(), 1ull << 32);
  EXPECT_THROW(SubFtl::check_subpage_index_fits(over), std::invalid_argument);

  EXPECT_NO_THROW(SubFtl::check_subpage_index_fits(nand::prod_geometry()));
}

std::string save(const SubFtl& ftl) {
  std::ostringstream os;
  util::StateWriter w(os);
  ftl.save_state(w);
  return os.str();
}

void load(SubFtl& ftl, const std::string& bytes) {
  std::istringstream is(bytes);
  util::StateReader r(is);
  ftl.load_state(r);
}

TEST(SubFtl, SnapshotRoundTripKeepsPackedRecords) {
  // Region-resident, hot (re-updated) and full-page-region sectors: the
  // archive unpacks the records into the v1 arrays and load packs them
  // back, so a second save is byte-identical to the first.
  SubFixture fx;
  SimTime now = 0.0;
  for (int i = 0; i < 200; ++i)
    now = fx.ftl->write((i * 7) % 96, 1, true, now).done;
  now = fx.ftl->write(512, 8, true, now).done;
  const std::string first = save(*fx.ftl);
  SubFixture restored;
  load(*restored.ftl, first);
  EXPECT_EQ(save(*restored.ftl), first);
  EXPECT_EQ(restored.ftl->subpage_mapping_entries(),
            fx.ftl->subpage_mapping_entries());
}

TEST(SubFtl, LoadStateRejectsVersionBeyond31Bits) {
  SubFixture fx;
  fx.ftl->write(5, 1, true, 0.0);
  const std::string bytes = save(*fx.ftl);
  // v1 tail: u64 count, one u32 version per sector, then f64 last scan,
  // u32 writes-since-WL and one bool byte.
  const std::size_t sectors = 2048;
  const std::size_t versions = bytes.size() - 13 - 4 * sectors;
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + versions - 8, 8);
  ASSERT_EQ(count, sectors);
  auto version_at = [&](const std::string& b, std::size_t sector) {
    std::uint32_t v = 0;
    std::memcpy(&v, b.data() + versions + 4 * sector, 4);
    return v;
  };
  ASSERT_EQ(version_at(bytes, 5), 1u);
  auto with_version = [&](std::uint32_t v) {
    std::string b = bytes;
    std::memcpy(b.data() + versions + 4 * 5, &v, 4);
    return b;
  };
  SubFixture widest;
  EXPECT_NO_THROW(load(*widest.ftl, with_version((1u << 31) - 1)));
  SubFixture too_wide;
  EXPECT_THROW(load(*too_wide.ftl, with_version(1u << 31)),
               std::runtime_error);
}

}  // namespace
}  // namespace esp::ftl
