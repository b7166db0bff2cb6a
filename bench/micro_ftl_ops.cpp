// Google-benchmark micro-benchmarks of the simulator's hot paths: these
// bound the wall-clock cost of the figure-reproduction benches and catch
// accidental complexity regressions in the FTL data structures.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <vector>

#include "bench_common.h"
#include "core/ssd.h"
#include "ftl/block_allocator.h"
#include "ftl/fullpage_pool.h"
#include "ftl/hintless_ftl.h"
#include "ftl/sub_ftl.h"
#include "ftl/subpage_pool.h"
#include "ftl/write_buffer.h"
#include "nand/cell_model.h"
#include "nand/device.h"
#include "sim/driver.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/zipf.h"
#include "workload/synthetic.h"

namespace {

using namespace esp;

void BM_RngDraw(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng());
}
BENCHMARK(BM_RngDraw);

void BM_ZipfSample(benchmark::State& state) {
  util::ScatteredZipf zipf(1 << 20, 0.9);
  util::Xoshiro256 rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample);

void BM_WorkloadNext(benchmark::State& state) {
  workload::SyntheticParams params;
  params.footprint_sectors = 1 << 20;
  params.request_count = ~0ull >> 1;
  params.r_small = 0.8;
  params.read_fraction = 0.3;
  workload::SyntheticWorkload stream(params);
  for (auto _ : state) benchmark::DoNotOptimize(stream.next());
}
BENCHMARK(BM_WorkloadNext);

void BM_WriteBufferInsertExtract(benchmark::State& state) {
  ftl::WriteBuffer buffer(4096);
  std::vector<ftl::BufferedSector> out;
  util::Xoshiro256 rng(3);
  for (auto _ : state) {
    const std::uint64_t sector = rng.below(1 << 16);
    buffer.insert(sector, sector + 1, true);
    if (buffer.size() > 2048) {
      buffer.extract_oldest_page_group(4, out);
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
  }
}
BENCHMARK(BM_WriteBufferInsertExtract);

// The sync write path of subFTL and sectorLog: a 1-sector write lands
// between two async neighbours already buffered in its page and pulls the
// whole page group out at once, while the rest of the buffer sits at a
// typical fill of isolated pages the extraction must probe past.
void BM_WriteBufferSyncExtract(benchmark::State& state) {
  constexpr std::uint32_t kSubs = 4;
  ftl::WriteBuffer buffer(512);
  std::vector<ftl::BufferedSector> out;
  // Background pages 2 apart (never a chain), above the target range.
  for (std::uint64_t i = 0; i < 384; ++i)
    buffer.insert((1u << 20) + 2 * kSubs * i, i, false);
  util::Xoshiro256 rng(4);
  for (auto _ : state) {
    const std::uint64_t first = 2 * kSubs * rng.below(1 << 14);
    buffer.insert(first, 1, true);
    buffer.insert(first + 2, 2, true);
    buffer.insert(first + 1, 3, true);  // the sync write
    buffer.extract_page_group(first + 1, kSubs, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_WriteBufferSyncExtract);

void BM_DeviceSubpageProgram(benchmark::State& state) {
  nand::Geometry geo;
  geo.channels = 8;
  geo.chips_per_channel = 4;
  geo.blocks_per_chip = 8;
  geo.pages_per_block = 128;
  nand::NandDevice dev(geo);
  SimTime now = 0.0;
  std::uint64_t i = 0;
  const std::uint64_t slots = geo.total_subpages();
  for (auto _ : state) {
    if (i >= slots) {  // wrap: erase everything and restart
      state.PauseTiming();
      for (std::uint32_t c = 0; c < geo.total_chips(); ++c)
        for (std::uint32_t b = 0; b < geo.blocks_per_chip; ++b)
          dev.erase_block(c, b, now);
      i = 0;
      state.ResumeTiming();
    }
    const nand::AddressCodec codec(geo);
    const auto addr = codec.decode_subpage(i++);
    now = dev.program_subpage(addr, i, now).done;
  }
}
BENCHMARK(BM_DeviceSubpageProgram);

// Device slot-store rows. Random full-page reads over a prod-geometry
// device whose every page holds a full-page program (all slots stored, so
// each read runs the retention verdict for every slot): the device state
// (about 270 MiB) far exceeds the CPU caches, as in mixed-prod's
// read-modify-write path.
void BM_DeviceReadPage(benchmark::State& state) {
  const nand::Geometry geo = nand::prod_geometry();
  nand::NandDevice dev(geo);
  const nand::AddressCodec codec(geo);
  std::vector<std::uint64_t> tokens(geo.subpages_per_page);
  const std::uint64_t pages = geo.total_pages();
  for (std::uint64_t p = 0; p < pages; ++p) {
    for (std::uint32_t s = 0; s < geo.subpages_per_page; ++s)
      tokens[s] = p * geo.subpages_per_page + s;
    dev.program_full(codec.decode_page(p), tokens, 0.0);
  }
  util::Xoshiro256 rng(8);
  for (auto _ : state) {
    const auto ack = dev.read_page(codec.decode_page(rng.below(pages)), 1.0);
    benchmark::DoNotOptimize(ack.token[0]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeviceReadPage);

// Programs one block page by page with full-page programs, then erases
// it; successive iterations walk the blocks of a prod-geometry device.
// Items are pages programmed.
void BM_DeviceProgramErase(benchmark::State& state) {
  const nand::Geometry geo = nand::prod_geometry();
  nand::NandDevice dev(geo);
  std::vector<std::uint64_t> tokens(geo.subpages_per_page, 1);
  const std::uint64_t blocks = geo.total_blocks();
  std::uint64_t next = 0;
  SimTime now = 0.0;
  for (auto _ : state) {
    const auto chip = static_cast<std::uint32_t>(next / geo.blocks_per_chip);
    const auto blk = static_cast<std::uint32_t>(next % geo.blocks_per_chip);
    next = (next + 1) % blocks;
    for (std::uint32_t page = 0; page < geo.pages_per_block; ++page)
      now = dev.program_full(nand::PageAddr{chip, blk, page}, tokens, now)
                .done;
    now = dev.erase_block(chip, blk, now).done;
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(state.iterations() * geo.pages_per_block);
}
BENCHMARK(BM_DeviceProgramErase);

void BM_SsdSyncSmallWrite(benchmark::State& state) {
  core::SsdConfig cfg;
  nand::Geometry geo;
  geo.channels = 4;
  geo.chips_per_channel = 2;
  geo.blocks_per_chip = 32;
  geo.pages_per_block = 64;
  cfg.geometry = geo;
  cfg.ftl = core::FtlKind::kSub;
  cfg.logical_fraction = 0.6;
  core::Ssd ssd(cfg);
  ssd.precondition(0.5);
  util::Xoshiro256 rng(4);
  const std::uint64_t sectors = ssd.logical_sectors() / 8;
  for (auto _ : state) {
    const std::uint64_t sector = rng.below(sectors);
    ssd.driver().submit(
        {workload::Request::Type::kWrite, sector, 1, true, 0.0}, false);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SsdSyncSmallWrite);

// ---------------------------------------------------------------------------
// Maintenance-path asymptotics (the production-scale replay work).
//
// Each BM_Maint* benchmark times ONE steady-state maintenance call --
// retention scan, static wear leveling, idle-block release -- on a device
// whose block count is the benchmark argument, in both implementations:
// Arg(1) == 1 selects the original O(device)/O(owned) reference scans
// (Config::reference_scan_maintenance), Arg(1) == 0 the incremental
// indices. The interesting read-out is the growth ACROSS the block-count
// range: the scan rows grow linearly, the index rows must stay flat.
// Decisions are bit-identical between the two modes (see
// docs/PERFORMANCE.md); here only the per-call cost differs.
//
// The harness populates a SubpagePool at level 0 with one live subpage per
// page and never expires or unbalances anything, so every timed call is the
// no-eviction fast path -- pure traversal/index overhead, no flash work.

/// A standalone subpage region on an 8-chip device: Arg blocks per chip,
/// half given to the pool. Kept small enough that setup (one write per
/// page of every owned block) stays in the low milliseconds.
struct MaintHarness {
  nand::Geometry geo;
  std::unique_ptr<nand::NandDevice> dev;
  std::unique_ptr<ftl::BlockAllocator> allocator;
  ftl::FtlStats stats;
  std::unique_ptr<ftl::SubpagePool> pool;
  SimTime now = 0.0;

  MaintHarness(std::uint32_t blocks_per_chip, bool reference_scan) {
    geo.channels = 4;
    geo.chips_per_channel = 2;
    geo.blocks_per_chip = blocks_per_chip;
    geo.pages_per_block = 64;
    dev = std::make_unique<nand::NandDevice>(geo);
    allocator = std::make_unique<ftl::BlockAllocator>(geo);
    ftl::SubpagePool::Config cfg;
    cfg.quota_blocks = geo.total_blocks() / 2;
    cfg.retention_evict_age = 15 * sim_time::kDay;
    cfg.reference_scan_maintenance = reference_scan;
    pool = std::make_unique<ftl::SubpagePool>(
        *dev, *allocator, cfg, stats, /*place=*/
        [](std::uint64_t, std::uint64_t) {},
        /*evict=*/
        [this](std::span<const ftl::SectorWrite>, SimTime t, bool) {
          return t;
        },
        /*hot=*/[](std::uint64_t) { return false; },
        /*kept=*/[](std::uint64_t) {});
    // One live subpage per page of every quota block (level 0 fills the
    // 0th slot of each page before any block advances).
    const std::uint64_t sectors = cfg.quota_blocks * geo.pages_per_block;
    for (std::uint64_t s = 0; s < sectors; ++s) {
      now = pool->write_sector(s, ftl::make_token(s, 1), now).second;
      now += 1.0;  // distinct written_at per page
    }
  }
};

void BM_MaintRetentionScan(benchmark::State& state) {
  MaintHarness h(static_cast<std::uint32_t>(state.range(0)),
                 state.range(1) != 0);
  // Well before any page's eviction age: every call scans and finds
  // nothing (the steady state between expiry waves).
  const SimTime at = h.now + sim_time::kDay;
  for (auto _ : state) benchmark::DoNotOptimize(h.pool->retention_scan(at));
  state.SetLabel(state.range(1) ? "scan" : "index");
}
BENCHMARK(BM_MaintRetentionScan)
    ->ArgsProduct({{128, 512, 2048}, {1, 0}})
    ->Unit(benchmark::kMicrosecond);

void BM_MaintStaticWearLevel(benchmark::State& state) {
  MaintHarness h(static_cast<std::uint32_t>(state.range(0)),
                 state.range(1) != 0);
  // Uniform wear, huge threshold: the call locates the least-worn sealed
  // block and decides "balanced" -- the every-wl_check_interval fast path.
  for (auto _ : state)
    benchmark::DoNotOptimize(h.pool->static_wear_level(h.now, 1u << 30));
  state.SetLabel(state.range(1) ? "scan" : "index");
}
BENCHMARK(BM_MaintStaticWearLevel)
    ->ArgsProduct({{128, 512, 2048}, {1, 0}})
    ->Unit(benchmark::kMicrosecond);

void BM_MaintReleaseIdleBlocks(benchmark::State& state) {
  MaintHarness h(static_cast<std::uint32_t>(state.range(0)),
                 state.range(1) != 0);
  // Every owned block still holds valid data: each call is the "nothing to
  // release" probe the owning FTL issues whenever free blocks run low.
  for (auto _ : state)
    benchmark::DoNotOptimize(h.pool->release_idle_blocks(h.now));
  state.SetLabel(state.range(1) ? "scan" : "index");
}
BENCHMARK(BM_MaintReleaseIdleBlocks)
    ->ArgsProduct({{128, 512, 2048}, {1, 0}})
    ->Unit(benchmark::kMicrosecond);

// GC allocation churn (FullPagePool::collect_block): steady-state greedy GC
// driven by random full-page overwrites over a small logical space. Before
// the BlockMeta arena (retire_meta_arrays/init_meta_arrays) and the pooled
// GC-token scratch, every collected block freed and re-grew its per-page
// vectors, so this benchmark's ns/op tracked the allocator; now the arrays
// recycle and the timed loop is allocation-free after warm-up.
void BM_FullPoolGcChurn(benchmark::State& state) {
  nand::Geometry geo;
  geo.channels = 4;
  geo.chips_per_channel = 2;
  geo.blocks_per_chip = 64;
  geo.pages_per_block = 64;
  nand::NandDevice dev(geo);
  ftl::BlockAllocator allocator(geo);
  ftl::FtlStats stats;
  const std::uint64_t lpns =
      geo.total_pages() * 7 / 10;  // 30% over-provisioning
  std::vector<std::uint64_t> page_of(lpns, ~0ull);
  ftl::FullPagePool::Config cfg;
  cfg.reserve_free_blocks = 8;
  ftl::FullPagePool pool(
      dev, allocator, cfg, stats,
      [&page_of](std::uint64_t lpn, std::uint64_t lin) {
        page_of[lpn] = lin;
      });
  std::vector<std::uint64_t> tokens(geo.subpages_per_page);
  util::Xoshiro256 rng(6);
  SimTime now = 0.0;
  auto write = [&](std::uint64_t lpn) {
    for (std::uint32_t s = 0; s < geo.subpages_per_page; ++s)
      tokens[s] = ftl::make_token(lpn * geo.subpages_per_page + s, 1);
    if (page_of[lpn] != ~0ull) pool.invalidate(page_of[lpn]);
    const auto [lin, done] = pool.write_page(lpn, tokens, now);
    page_of[lpn] = lin;
    now = done;
  };
  for (std::uint64_t lpn = 0; lpn < lpns; ++lpn) write(lpn);  // fill
  for (auto _ : state) write(rng.below(lpns));  // steady-state GC
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullPoolGcChurn);

// Retention eviction per evicted sector (SubFtl::tick -> SubpagePool::
// retention_scan -> SubFtl::evict_batch), the work behind the retention
// share of mixed-prod's host time. A prod-like subFTL -- prod geometry at
// half the blocks per chip, 40 % of flash logical, every logical page
// preconditioned into the full-page region -- takes a wave of random
// single-sector sync writes into its subpage region (untimed); one tick()
// past the eviction age then evicts the whole wave, each sector a
// read-modify-write of a cold, mapped full page scattered over mapping
// tables and device state far larger than the CPU caches. Reports wall ns
// per evicted sector of the timed ticks.
void BM_RetentionEvict(benchmark::State& state) {
  nand::Geometry geo = nand::prod_geometry();
  geo.blocks_per_chip /= 2;
  nand::NandDevice dev(geo);
  ftl::SubFtl::Config cfg;
  const std::uint32_t subs = geo.subpages_per_page;
  cfg.logical_sectors = geo.total_subpages() * 2 / 5 / subs * subs;
  ftl::SubFtl ftl(dev, cfg);
  SimTime now = 0.0;
  for (std::uint64_t s = 0; s < cfg.logical_sectors; s += subs)
    now = ftl.write(s, subs, /*sync=*/true, now).done;
  util::Xoshiro256 rng(7);
  constexpr std::uint32_t kWave = 16384;
  const SimTime past_age =
      cfg.retention_evict_age + cfg.retention_scan_interval;
  double timed_ns = 0.0;
  std::uint64_t evicted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (std::uint32_t i = 0; i < kWave; ++i)
      now = ftl.write(rng.below(cfg.logical_sectors), 1, true, now).done;
    const std::uint64_t before = ftl.stats().retention_evictions;
    state.ResumeTiming();
    const auto t0 = std::chrono::steady_clock::now();
    now = ftl.tick(now + past_age);
    benchmark::DoNotOptimize(now);
    timed_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    state.PauseTiming();
    evicted += ftl.stats().retention_evictions - before;
    state.ResumeTiming();
  }
  state.counters["evicted_per_tick"] =
      static_cast<double>(evicted) / static_cast<double>(state.iterations());
  state.counters["ns_per_evicted_sector"] =
      evicted ? timed_ns / static_cast<double>(evicted) : 0.0;
}
BENCHMARK(BM_RetentionEvict)->Iterations(12)->Unit(benchmark::kMillisecond);

// Host cost per request of Driver::run over perfbench's mixed-prod shape:
// subFTL at prod geometry (78 % of the logical space preconditioned, the
// compressed retention clock, QD 128) and the seeded mixed stream with
// verification on. "hinted" runs the driver over the FTL itself; "blind"
// runs it through ftl::HintlessFtl, which drops Ftl::prefetch and nothing
// else, so the gap is what the FTL-side cross-request hints buy (the
// driver's own shadow-map hints run on both sides). Each iteration
// replays 4096 requests after 40k untimed warmup requests; items/s is
// requests per second.
void BM_DriverReplay(benchmark::State& state, bool hinted) {
  core::SsdConfig cfg;
  cfg.geometry = nand::prod_geometry();
  cfg.ftl = core::FtlKind::kSub;
  cfg.logical_fraction = 0.79;
  cfg.buffer_sectors = 1024;
  cfg.gc_reserve_blocks = 16;
  cfg.queue_depth = 128;
  cfg.retention_scan_interval = 2 * sim_time::kSecond;
  cfg.retention_evict_age = 8 * sim_time::kSecond;
  cfg.wl_check_interval = 256;
  cfg.wl_pe_threshold = 8;
  core::Ssd ssd(cfg);
  constexpr double kPrecondition = 0.78;
  ssd.precondition(kPrecondition);
  const std::uint32_t subs = cfg.geometry.subpages_per_page;
  workload::SyntheticParams params =
      bench::mixed_workload(subs, /*seed=*/1, /*think_us=*/800.0);
  params.footprint_sectors =
      static_cast<std::uint64_t>(kPrecondition *
                                 static_cast<double>(ssd.logical_sectors())) /
      subs * subs;
  params.request_count = ~0ull >> 1;
  workload::SyntheticWorkload stream(params);
  ssd.driver().run(stream, /*verify=*/false, 40000);

  // Both sides continue the warmed-up driver state in a driver of their
  // own, so they differ only in the FTL it calls.
  ftl::HintlessFtl blind_ftl(ssd.ftl());
  sim::Driver driver(hinted ? ssd.ftl() : blind_ftl, ssd.device(),
                     cfg.queue_depth);
  std::stringstream archive;
  util::StateWriter w(archive);
  ssd.driver().save_state(w);
  util::StateReader r(archive);
  driver.load_state(r);
  constexpr std::uint64_t kBatch = 4096;
  std::uint64_t failures = 0;
  for (auto _ : state) {
    const sim::RunMetrics m = driver.run(stream, /*verify=*/true, kBatch);
    failures += m.verify_failures + m.io_errors;
    benchmark::DoNotOptimize(m.end_us);
  }
  if (failures > 0) state.SkipWithError("verification failures");
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK_CAPTURE(BM_DriverReplay, hinted, true)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_DriverReplay, blind, false)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_CellModelProgram(benchmark::State& state) {
  nand::WordLine wl(4, 8192, nand::CellModelParams{}, util::Xoshiro256(5));
  for (auto _ : state) {
    if (wl.slots_programmed() == 4) wl.erase();
    wl.program_subpage_random(wl.slots_programmed());
  }
}
BENCHMARK(BM_CellModelProgram);

}  // namespace

BENCHMARK_MAIN();
