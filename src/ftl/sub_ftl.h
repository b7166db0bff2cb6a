// subFTL: the paper's ESP-aware hybrid FTL (Sec. 4).
//
// NAND space is split into two regions managed differently:
//   * the SUBPAGE REGION (default 20 % of flash) absorbs every small write
//     as a single 4-KB ESP subpage program -- no internal fragmentation,
//     request WAF ~= 1 -- and is mapped by a per-sector hash table (small,
//     because a physical page holds at most one valid subpage);
//   * the FULL-PAGE REGION stores full-page writes and evicted cold data
//     under conventional coarse-grained mapping.
//
// Data placement (Sec. 4.1): after write-buffer merging, aligned full-page
// runs go to the full-page region, everything shorter goes to the subpage
// region. Because small writes skew hot and full-page writes skew cold,
// this also acts as a hot/cold separator.
//
// The extended mapping resolves a sector by: write buffer -> subpage hash
// -> coarse L2P. Retention management (Sec. 4.3) periodically evicts
// subpages older than 15 days to the full-page region, ahead of the
// 1-month conservative ESP retention horizon.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ftl/block_allocator.h"
#include "ftl/ftl.h"
#include "ftl/fullpage_pool.h"
#include "ftl/subpage_pool.h"
#include "ftl/write_buffer.h"
#include "nand/device.h"

namespace esp::ftl {

class SubFtl : public Ftl {
 public:
  struct Config {
    std::uint64_t logical_sectors = 0;
    double subpage_region_fraction = 0.20;  ///< paper Sec. 4
    std::size_t gc_reserve_blocks = 8;
    std::size_t buffer_sectors = 512;
    SimTime buffer_insert_us = 2.0;
    SimTime retention_evict_age = 15 * sim_time::kDay;   ///< paper Sec. 4.3
    SimTime retention_scan_interval = 1 * sim_time::kDay;
    // Subpage-region writing-policy knobs (see SubpagePool::Config and
    // bench/ablation_policy).
    double advance_max_valid_fraction = 0.25;
    std::uint32_t gc_free_target = 2;
    /// Static wear leveling knobs (see CgmFtl::Config); both regions are
    /// leveled, alternating per check.
    std::uint32_t wl_pe_threshold = 64;
    std::uint32_t wl_check_interval = 1024;
    /// Copy-back GC in the full-page region (see CgmFtl::Config).
    bool use_copyback = false;
    /// Run maintenance paths (wear leveling, and for subFTL retention scan
    /// + idle release) with the original O(device) linear scans instead of
    /// the incremental indices. Decisions are bit-identical either way;
    /// used by differential tests and CI to prove it.
    bool reference_scan_maintenance = false;
  };

  SubFtl(nand::NandDevice& dev, const Config& config);

  /// Throws std::invalid_argument when `geo` has more linear subpage
  /// addresses than a per-sector record's 32-bit index can hold below its
  /// "not in the region" sentinel. The constructor calls it first.
  static void check_subpage_index_fits(const nand::Geometry& geo);

  IoResult write(std::uint64_t sector, std::uint32_t count, bool sync,
                 SimTime now) override;
  IoResult read(std::uint64_t sector, std::uint32_t count, SimTime now,
                std::vector<std::uint64_t>* tokens) override;
  IoResult flush(SimTime now) override;
  void trim(std::uint64_t sector, std::uint32_t count) override;
  SimTime tick(SimTime now) override;
  /// kMap: the range's sector records and L2P entries; kTarget: the full
  /// pages those L2P entries map.
  void prefetch(std::uint64_t sector, std::uint32_t count,
                PrefetchStage stage) const override;

  std::uint64_t logical_sectors() const override {
    return config_.logical_sectors;
  }
  const FtlStats& stats() const override { return stats_; }
  std::uint64_t mapping_memory_bytes() const override;
  std::string name() const override { return "subFTL"; }
  void set_telemetry(telemetry::Sink* sink) override;
  void collect_health(std::span<telemetry::BlockHealth> out) const override {
    pool_full_.fill_health(out);
    pool_sub_.fill_health(out);
  }
  std::uint64_t free_blocks() const override {
    return allocator_.total_free();
  }

  void save_state(util::StateWriter& w) const override;
  void load_state(util::StateReader& r) override;

  // Introspection for tests and wear metrics.
  const SubpagePool& subpage_pool() const { return pool_sub_; }
  const FullPagePool& fullpage_pool() const { return pool_full_; }
  std::size_t subpage_mapping_entries() const { return sub_entries_; }

 private:
  SimTime flush_run(std::span<const BufferedSector> run, SimTime now);
  SimTime write_full_lpn(std::uint64_t lpn, const BufferedSector* group,
                         SimTime now);
  SimTime write_small_sector(const BufferedSector& bs, SimTime now);
  /// Eviction target of the subpage pool: merges the batch into the
  /// full-page region with one read-modify-write per logical page.
  SimTime evict_batch(std::span<const SectorWrite> batch, SimTime now,
                      bool retention);
  /// Read-modify-write of one sector into the full-page region (shared by
  /// eviction and the small-write overflow fallback).
  SimTime rmw_into_fullpage(std::uint64_t sector, std::uint64_t token,
                            SimTime now);
  void drop_subpage_copy(std::uint64_t sector);
  /// Enters (sector -> new_lin) in the subpage map.
  void place_subpage(std::uint64_t sector, std::uint64_t new_lin);
  void check_range(std::uint64_t sector, std::uint32_t count) const;

  nand::NandDevice& dev_;
  Config config_;
  nand::Geometry geo_;
  nand::AddressCodec codec_;
  FtlStats stats_;
  BlockAllocator allocator_;
  FullPagePool pool_full_;
  SubpagePool pool_sub_;
  WriteBuffer buffer_;
  /// Pooled scratch, not archived (capacity only, no behavior): the
  /// extraction target for buffer_ (flushes never nest), and evict_batch's
  /// sorted copy of the batch and its old full pages (eviction never nests
  /// either).
  std::vector<BufferedSector> extracted_;
  std::vector<SectorWrite> evict_sorted_;
  std::vector<std::uint64_t> evict_old_pages_;  ///< linear page addresses
  std::vector<std::uint64_t> l2p_;      ///< lpn -> linear page (full region)
  /// Everything the hot path keeps per logical sector, packed into one
  /// 8-byte record so a write or read of a sector costs one cache miss:
  /// the subpage map entry (the flat-array form of the paper's hash
  /// table -- one indexed load instead of a hash+probe), the write
  /// version its tokens carry, and the hot flag (updated since entering
  /// the region). The MODELED mapping cost stays the paper's hash table --
  /// 16 bytes per live entry, counted by sub_entries_ -- not this
  /// simulator-side array. Snapshots archive the former three-array shape
  /// (save_state/load_state convert).
  struct SectorRecord {
    static constexpr std::uint32_t kNotInRegion = ~0u;
    static constexpr std::uint32_t kHotBit = 1u << 31;
    static constexpr std::uint32_t kVersionMask = kHotBit - 1;

    std::uint32_t sub_lin = kNotInRegion;  ///< linear subpage address
    std::uint32_t version_hot = 0;  ///< bit 31: hot; bits 0-30: version

    bool in_region() const { return sub_lin != kNotInRegion; }
    bool hot() const { return (version_hot & kHotBit) != 0; }
    void set_hot(bool hot) {
      version_hot = hot ? version_hot | kHotBit : version_hot & kVersionMask;
    }
    std::uint32_t version() const { return version_hot & kVersionMask; }
    /// Counts one more write and returns the new version (31-bit wrap;
    /// tokens carry only the low 24 bits).
    std::uint32_t next_version() {
      version_hot = (version_hot & kHotBit) |
                    ((version_hot + 1) & kVersionMask);
      return version();
    }
  };
  static_assert(sizeof(SectorRecord) == 8);
  std::vector<SectorRecord> sectors_;
  std::size_t sub_entries_ = 0;  ///< live subpage-map entries
  SimTime last_retention_scan_ = 0.0;
  std::uint32_t writes_since_wl_ = 0;
  bool wl_toggle_ = false;  ///< alternate regions between WL checks
  telemetry::Sink* sink_ = nullptr;
};

}  // namespace esp::ftl
