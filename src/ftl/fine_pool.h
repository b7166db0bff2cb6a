// Fine-grained (sector-mapped) storage pool -- the FGM scheme's physical
// layer (paper Sec. 2).
//
// Flash programs are always full-page operations, but validity and mapping
// are tracked per 4-KB sector: a page program carries 1..Nsub live sectors
// and padding for the rest. When the write buffer manages to merge Nsub
// sectors, space efficiency is perfect; a lone synchronous 4-KB write burns
// a full page for one live sector -- the internal fragmentation that
// drives FGM's GC overhead on sync-heavy workloads.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "ftl/block_allocator.h"
#include "ftl/types.h"
#include "ftl/wear_index.h"
#include "nand/address.h"
#include "nand/device.h"
#include "telemetry/sink.h"

namespace esp::ftl {

class FinePool {
 public:
  struct Config {
    std::uint64_t quota_blocks = ~0ull;
    std::size_t reserve_free_blocks = 8;
    /// Debug/differential mode: find wear-leveling targets with the
    /// original O(device) linear scan instead of the incremental wear
    /// index (see FullPagePool::Config::reference_scan_maintenance).
    bool reference_scan_maintenance = false;
  };

  /// Invoked whenever a sector lands on flash (initial write and GC moves):
  /// (sector, new linear subpage address).
  using PlaceFn =
      std::function<void(std::uint64_t sector, std::uint64_t new_sub_lin)>;
  /// Optional log-region mode: when set, GC hands every live sector of the
  /// victim to this callback (merge into another region) instead of
  /// repacking within the pool -- the cleaning policy of sector-log-style
  /// hybrid FTLs. Returns the completion time.
  using EvictFn = std::function<SimTime(std::span<const SectorWrite> batch,
                                        SimTime now)>;

  FinePool(nand::NandDevice& dev, BlockAllocator& allocator,
           const Config& config, FtlStats& stats, PlaceFn place,
           EvictFn evict_on_gc = nullptr);

  /// Programs ONE full page carrying the given 1..Nsub sectors (padding
  /// elsewhere); invokes the place callback per sector. Returns completion.
  SimTime write_group(std::span<const SectorWrite> group, SimTime now);

  /// Marks the sector at the given linear subpage address stale.
  void invalidate(std::uint64_t sub_lin);

  /// Runs GC while space pressure persists.
  SimTime maybe_gc(SimTime now);

  /// Static wear leveling: relocate the least-worn sealed block's live
  /// sectors when it lags the device's most-worn block by more than
  /// `pe_threshold` erase cycles (see FullPagePool::static_wear_level).
  SimTime static_wear_level(SimTime now, std::uint32_t pe_threshold);

  std::uint64_t blocks_in_use() const { return blocks_in_use_; }
  std::uint64_t valid_sectors() const { return valid_sectors_; }

  /// Health snapshot: marks owned blocks as pool "fine" with their live
  /// sector count (capacity = sectors per block).
  void fill_health(std::span<telemetry::BlockHealth> out) const;

  /// Attaches a telemetry sink (nullptr detaches); GC / wear-leveling
  /// block collections are recorded as mechanism-lane op events.
  void set_telemetry(telemetry::Sink* sink) { sink_ = sink; }

  /// Snapshot support (see FullPagePool::save_state).
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  struct BlockMeta {
    bool owned = false;
    bool active = false;
    std::uint32_t next_page = 0;
    std::uint32_t valid_count = 0;                ///< live sectors
    /// Reverse map per slot; a slot is live exactly when its entry is not
    /// kUnmapped (every write sets it, every invalidation clears it).
    std::vector<std::uint64_t> sector_of_slot;
    bool slot_valid(std::size_t slot_idx) const {
      return sector_of_slot[slot_idx] != nand::kUnmapped;
    }
  };

  std::size_t block_index(std::uint32_t chip, std::uint32_t block) const {
    return static_cast<std::size_t>(chip) * geo_.blocks_per_chip + block;
  }
  bool space_pressure() const;
  /// `now` stamps block-allocation telemetry.
  bool ensure_active(std::uint32_t* chip_out, SimTime now);
  SimTime collect(SimTime now);
  SimTime collect_block(std::size_t idx, SimTime now, bool for_wear_leveling);
  void push_victim_candidate(std::size_t idx);
  std::optional<std::size_t> pop_victim();
  /// BlockMeta per-slot array recycling (see SubpagePool::retire_meta_arrays).
  void retire_meta_arrays(BlockMeta& m);
  void init_meta_arrays(BlockMeta& m);

  nand::NandDevice& dev_;
  BlockAllocator& allocator_;
  Config config_;
  FtlStats& stats_;
  PlaceFn place_;
  EvictFn evict_on_gc_;
  nand::Geometry geo_;
  nand::AddressCodec codec_;

  std::vector<BlockMeta> meta_;
  std::vector<std::optional<std::uint32_t>> active_block_;
  std::uint32_t rr_chip_ = 0;
  std::uint64_t blocks_in_use_ = 0;
  std::uint64_t valid_sectors_ = 0;
  bool in_gc_ = false;
  telemetry::Sink* sink_ = nullptr;
  std::priority_queue<std::pair<std::uint32_t, std::size_t>,
                      std::vector<std::pair<std::uint32_t, std::size_t>>,
                      std::greater<>>
      victim_heap_;
  /// Wear-leveling candidates, pushed at seal time (see wear_index.h).
  WearIndex wear_index_;
  /// Recycled reverse-map arrays of released blocks.
  std::vector<std::vector<std::uint64_t>> spare_meta_;
  /// Pooled scratch. collect_block never nests within itself, and a nested
  /// write_group (GC repack) finishes with write_tokens_ before the outer
  /// write_group starts filling it.
  std::vector<SectorWrite> gc_live_;
  std::vector<std::uint64_t> write_tokens_;
};

}  // namespace esp::ftl
