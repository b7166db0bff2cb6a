// Coarse-grained (full-page) storage pool.
//
// Implements the CGM scheme's physical layer, shared by cgmFTL (as its only
// pool) and subFTL (as its full-page region): out-of-place full-page
// writes striped round-robin across chips, per-page validity tracking,
// greedy garbage collection (victim = fewest valid pages), and dynamic
// wear leveling via the shared low-P/E-first BlockAllocator.
//
// Mapping tables stay in the owning FTL; the pool reports relocations
// through a callback so the FTL can patch its L2P entries.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "ftl/block_allocator.h"
#include "ftl/types.h"
#include "ftl/wear_index.h"
#include "nand/address.h"
#include "nand/device.h"
#include "telemetry/sink.h"

namespace esp::ftl {

class FullPagePool {
 public:
  struct Config {
    /// Max blocks this pool may hold simultaneously (region quota).
    std::uint64_t quota_blocks = ~0ull;
    /// GC starts when the shared allocator drops to this many free blocks.
    std::size_t reserve_free_blocks = 8;
    /// Use the NAND copy-back command for GC page moves whose destination
    /// can stay on the source chip: saves both channel transfers per copy.
    bool use_copyback = false;
    /// Debug/differential mode: find wear-leveling targets with the
    /// original O(device) linear scan instead of the incremental wear
    /// index. Decisions are bit-identical either way (see
    /// docs/PERFORMANCE.md); the scan mode exists so tests and CI can keep
    /// proving that on every change.
    bool reference_scan_maintenance = false;
  };

  /// Invoked when GC moves a logical page: (lpn, new linear page address).
  using RelocateFn =
      std::function<void(std::uint64_t lpn, std::uint64_t new_page_lin)>;

  FullPagePool(nand::NandDevice& dev, BlockAllocator& allocator,
               const Config& config, FtlStats& stats, RelocateFn relocate);

  /// Programs one full page of tokens for `lpn`; runs GC first if space is
  /// tight. Returns the linear page address and the completion time.
  std::pair<std::uint64_t, SimTime> write_page(
      std::uint64_t lpn, std::span<const std::uint64_t> tokens, SimTime now);

  /// Marks a previously written page stale.
  void invalidate(std::uint64_t page_lin);

  /// Host-cache hints (util/prefetch.h) for a page about to be read and
  /// invalidated: prefetch_target warms the device page and the metadata
  /// of its block; prefetch_page_meta -- once that is warm -- the page's
  /// reverse-map entry. No effect on pool or device state; addresses
  /// outside the device are ignored.
  void prefetch_target(std::uint64_t page_lin) const;
  void prefetch_page_meta(std::uint64_t page_lin) const;

  /// Runs one GC pass if the pool is over quota or the allocator is below
  /// reserve; returns the (possibly advanced) time.
  SimTime maybe_gc(SimTime now);

  /// Static wear leveling (paper Sec. 4.2): when this pool's least-worn
  /// sealed block lags the device's most-worn block by more than
  /// `pe_threshold` cycles, relocate its (typically cold) contents and
  /// erase it so it rejoins the low-P/E-first hot rotation. Returns the
  /// possibly advanced time; cheap no-op when wear is balanced.
  SimTime static_wear_level(SimTime now, std::uint32_t pe_threshold);

  std::uint64_t blocks_in_use() const { return blocks_in_use_; }
  std::uint64_t valid_pages() const { return valid_pages_; }
  const Config& config() const { return config_; }

  /// For wear metrics: P/E counts of blocks currently owned by this pool.
  std::vector<std::uint32_t> owned_pe_cycles() const;

  /// Health snapshot: marks owned blocks as pool "full" with their valid
  /// page count (capacity = pages per block).
  void fill_health(std::span<telemetry::BlockHealth> out) const;

  /// Attaches a telemetry sink (nullptr detaches); GC / wear-leveling
  /// block collections are recorded as mechanism-lane op events.
  void set_telemetry(telemetry::Sink* sink) { sink_ = sink; }

  /// Snapshot support: per-block metadata, owned-block index, active
  /// blocks, and the exact victim/wear heap layouts. Recycled spare arrays
  /// are NOT archived (pure allocation reuse, no behavior).
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  struct BlockMeta {
    bool owned = false;
    bool active = false;              ///< currently receiving writes
    std::uint32_t next_page = 0;      ///< program cursor
    std::uint32_t valid_count = 0;
    /// Reverse map; a page is valid exactly when its entry is not
    /// kUnmapped (every write sets the entry, every invalidation clears
    /// it), so validity costs no second array.
    std::vector<std::uint64_t> lpn_of_page;
    bool page_valid(std::uint32_t page) const {
      return lpn_of_page[page] != nand::kUnmapped;
    }
  };

  std::size_t block_index(std::uint32_t chip, std::uint32_t block) const {
    return static_cast<std::size_t>(chip) * geo_.blocks_per_chip + block;
  }
  /// Owned-block index (ascending block id per chip): lets owned_pe_cycles
  /// walk only this pool's blocks instead of the whole device.
  void index_add(std::uint32_t chip, std::uint32_t block);
  void index_remove(std::uint32_t chip, std::uint32_t block);
  /// BlockMeta per-page array recycling (see SubpagePool::retire_meta_arrays).
  void retire_meta_arrays(BlockMeta& m);
  void init_meta_arrays(BlockMeta& m);
  bool space_pressure() const;
  SimTime collect(SimTime now);  ///< one greedy GC pass
  /// Relocates every valid page of the given sealed block, erases it, and
  /// returns it to the allocator (shared by GC and static wear leveling).
  SimTime collect_block(std::size_t idx, SimTime now, bool for_wear_leveling);
  void push_victim_candidate(std::size_t idx);
  /// Pops the current min-valid collectable block; nullopt when none.
  std::optional<std::size_t> pop_victim();
  /// Picks/opens the active block on the next chip; returns false when no
  /// block is available anywhere. `now` stamps block-allocation telemetry.
  bool ensure_active(std::uint32_t* chip_out, SimTime now);
  /// Same, pinned to one chip (used by the copyback GC path).
  bool ensure_active_on(std::uint32_t chip, SimTime now);

  nand::NandDevice& dev_;
  BlockAllocator& allocator_;
  Config config_;
  FtlStats& stats_;
  RelocateFn relocate_;
  nand::Geometry geo_;
  nand::AddressCodec codec_;

  std::vector<BlockMeta> meta_;  ///< indexed by chip*blocks_per_chip+block
  std::vector<std::vector<std::uint32_t>> owned_by_chip_;
  std::vector<std::optional<std::uint32_t>> active_block_;  ///< per chip
  /// Lazy min-heap of GC candidates: (valid_count at push, block index).
  /// Stale entries (count changed, block re-erased, ...) are skipped at pop.
  std::priority_queue<std::pair<std::uint32_t, std::size_t>,
                      std::vector<std::pair<std::uint32_t, std::size_t>>,
                      std::greater<>>
      victim_heap_;
  /// Wear-leveling candidates, pushed at seal time (see wear_index.h).
  WearIndex wear_index_;
  /// Recycled reverse-map arrays of released blocks.
  std::vector<std::vector<std::uint64_t>> spare_meta_;
  /// Pooled GC read buffer (collect_block never nests within itself).
  std::vector<std::uint64_t> gc_tokens_;
  std::uint32_t rr_chip_ = 0;
  std::uint64_t blocks_in_use_ = 0;
  std::uint64_t valid_pages_ = 0;
  bool in_gc_ = false;
  telemetry::Sink* sink_ = nullptr;
};

}  // namespace esp::ftl
