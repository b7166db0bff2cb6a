#include "ftl/fullpage_pool.h"

#include <algorithm>
#include <stdexcept>

#include "util/logger.h"
#include "util/prefetch.h"

namespace esp::ftl {

FullPagePool::FullPagePool(nand::NandDevice& dev, BlockAllocator& allocator,
                           const Config& config, FtlStats& stats,
                           RelocateFn relocate)
    : dev_(dev),
      allocator_(allocator),
      config_(config),
      stats_(stats),
      relocate_(std::move(relocate)),
      geo_(dev.geometry()),
      codec_(geo_),
      meta_(geo_.total_blocks()),
      owned_by_chip_(geo_.total_chips()),
      active_block_(geo_.total_chips()) {
  if (!relocate_)
    throw std::invalid_argument("FullPagePool: relocate callback required");
}

void FullPagePool::index_add(std::uint32_t chip, std::uint32_t block) {
  auto& owned = owned_by_chip_[chip];
  owned.insert(std::lower_bound(owned.begin(), owned.end(), block), block);
}

void FullPagePool::index_remove(std::uint32_t chip, std::uint32_t block) {
  auto& owned = owned_by_chip_[chip];
  const auto it = std::lower_bound(owned.begin(), owned.end(), block);
  if (it != owned.end() && *it == block) owned.erase(it);
}

void FullPagePool::retire_meta_arrays(BlockMeta& m) {
  spare_meta_.push_back(std::move(m.lpn_of_page));
}

void FullPagePool::init_meta_arrays(BlockMeta& m) {
  if (!spare_meta_.empty()) {
    m.lpn_of_page = std::move(spare_meta_.back());
    spare_meta_.pop_back();
  }
  m.lpn_of_page.assign(geo_.pages_per_block, nand::kUnmapped);
}

bool FullPagePool::space_pressure() const {
  return allocator_.total_free() <= config_.reserve_free_blocks ||
         blocks_in_use_ >= config_.quota_blocks;
}

bool FullPagePool::ensure_active_on(std::uint32_t chip, SimTime now) {
  auto& active = active_block_[chip];
  if (active) {
    BlockMeta& m = meta_[block_index(chip, *active)];
    if (m.next_page < geo_.pages_per_block) return true;
    m.active = false;  // full: retire from active duty, becomes collectable
    push_victim_candidate(block_index(chip, *active));
    wear_index_.push(dev_.pe_cycles(chip, *active),
                     block_index(chip, *active));
    active.reset();
  }
  const auto blk = allocator_.alloc(chip);
  if (!blk) return false;
  BlockMeta& m = meta_[block_index(chip, *blk)];
  m.owned = true;
  index_add(chip, *blk);
  m.active = true;
  m.next_page = 0;
  m.valid_count = 0;
  init_meta_arrays(m);
  active = *blk;
  ++blocks_in_use_;
  if (sink_)
    sink_->record_block({telemetry::BlockEventKind::kAllocated, chip, *blk,
                         "full", 0, 0, dev_.pe_cycles(chip, *blk),
                         now});
  return true;
}

bool FullPagePool::ensure_active(std::uint32_t* chip_out, SimTime now) {
  // Round-robin over chips; open a fresh block when a chip's active block
  // is full or missing. Falls through to any chip with free blocks.
  for (std::uint32_t attempt = 0; attempt < geo_.total_chips(); ++attempt) {
    const std::uint32_t chip = (rr_chip_ + attempt) % geo_.total_chips();
    if (ensure_active_on(chip, now)) {
      *chip_out = chip;
      rr_chip_ = (chip + 1) % geo_.total_chips();
      return true;
    }
  }
  return false;
}

std::pair<std::uint64_t, SimTime> FullPagePool::write_page(
    std::uint64_t lpn, std::span<const std::uint64_t> tokens, SimTime now) {
  if (!in_gc_) now = maybe_gc(now);
  std::uint32_t chip = 0;
  if (!ensure_active(&chip, now))
    throw std::runtime_error(
        "FullPagePool: out of physical blocks (over-provisioning exhausted)");
  const std::uint32_t blk = *active_block_[chip];
  BlockMeta& m = meta_[block_index(chip, blk)];
  const std::uint32_t page = m.next_page++;

  const nand::PageAddr addr{chip, blk, page};
  const auto ack = dev_.program_full(addr, tokens, now);
  ++stats_.flash_prog_full;

  m.lpn_of_page[page] = lpn;
  ++m.valid_count;
  ++valid_pages_;
  return {codec_.encode_page(addr), ack.done};
}

void FullPagePool::invalidate(std::uint64_t page_lin) {
  const nand::PageAddr addr = codec_.decode_page(page_lin);
  BlockMeta& m = meta_[block_index(addr.chip, addr.block)];
  if (!m.owned || !m.page_valid(addr.page))
    throw std::logic_error("FullPagePool::invalidate: page not valid");
  m.lpn_of_page[addr.page] = nand::kUnmapped;
  --m.valid_count;
  --valid_pages_;
  if (!m.active && m.next_page == geo_.pages_per_block)
    push_victim_candidate(block_index(addr.chip, addr.block));
}

void FullPagePool::prefetch_target(std::uint64_t page_lin) const {
  if (page_lin >= geo_.total_pages()) return;
  const nand::PageAddr addr = codec_.decode_page(page_lin);
  dev_.prefetch_page(addr);
  util::prefetch(&meta_[block_index(addr.chip, addr.block)]);
}

void FullPagePool::prefetch_page_meta(std::uint64_t page_lin) const {
  if (page_lin >= geo_.total_pages()) return;
  const nand::PageAddr addr = codec_.decode_page(page_lin);
  const BlockMeta& m = meta_[block_index(addr.chip, addr.block)];
  if (addr.page < m.lpn_of_page.size())
    util::prefetch(&m.lpn_of_page[addr.page]);
}

void FullPagePool::push_victim_candidate(std::size_t idx) {
  victim_heap_.emplace(meta_[idx].valid_count, idx);
}

std::optional<std::size_t> FullPagePool::pop_victim() {
  while (!victim_heap_.empty()) {
    const auto [count, idx] = victim_heap_.top();
    victim_heap_.pop();
    const BlockMeta& m = meta_[idx];
    // Skip stale entries: block re-erased / re-opened / count changed
    // (a fresher entry with the smaller count is still in the heap).
    if (m.owned && !m.active && m.next_page == geo_.pages_per_block &&
        m.valid_count == count)
      return idx;
  }
  return std::nullopt;
}

SimTime FullPagePool::maybe_gc(SimTime now) {
  while (space_pressure() && blocks_in_use_ > 0) {
    const SimTime after = collect(now);
    if (after == now && space_pressure()) break;  // no reclaimable victim
    now = after;
  }
  return now;
}

SimTime FullPagePool::collect(SimTime now) {
  // Greedy victim: fully written, non-active block with fewest valid pages.
  const auto victim_idx = pop_victim();
  if (!victim_idx) return now;  // nothing collectable yet
  const std::uint32_t best_valid = meta_[*victim_idx].valid_count;
  if (best_valid == geo_.pages_per_block) {
    // Erasing a fully-valid block reclaims nothing: decline and let writes
    // consume the reserve until overwrites create a real victim (any
    // invalidation re-queues the block).
    return now;
  }

  ++stats_.gc_invocations;
  return collect_block(*victim_idx, now, /*for_wear_leveling=*/false);
}

SimTime FullPagePool::collect_block(std::size_t idx, SimTime now,
                                    bool for_wear_leveling) {
  const MaintenanceTimer timer(stats_, nullptr, &stats_.maint_gc_ns);
  const auto chip = static_cast<std::uint32_t>(idx / geo_.blocks_per_chip);
  const auto blk = static_cast<std::uint32_t>(idx % geo_.blocks_per_chip);
  const SimTime collect_start = now;
  std::uint64_t moved_sectors = 0;
  in_gc_ = true;
  // Copies and the final erase all attribute to this GC/WL episode.
  const telemetry::CauseScope cause(
      sink_,
      for_wear_leveling ? telemetry::Cause::kWearLevel
                        : telemetry::Cause::kGcCopy,
      idx, now);
  BlockMeta& victim = meta_[idx];
  for (std::uint32_t page = 0; page < geo_.pages_per_block; ++page) {
    if (!victim.page_valid(page)) continue;
    const std::uint64_t lpn = victim.lpn_of_page[page];
    const nand::PageAddr src{chip, blk, page};

    if (config_.use_copyback && ensure_active_on(chip, now) &&
        active_block_[chip] != blk) {
      // On-chip copy: no channel transfers in either direction.
      const std::uint32_t dst_blk = *active_block_[chip];
      BlockMeta& dst = meta_[block_index(chip, dst_blk)];
      const std::uint32_t dst_page = dst.next_page++;
      const nand::PageAddr dst_addr{chip, dst_blk, dst_page};
      const auto ack = dev_.copyback(src, dst_addr, now);
      ++stats_.flash_reads;
      ++stats_.flash_prog_full;
      victim.lpn_of_page[page] = nand::kUnmapped;
      --victim.valid_count;
      dst.lpn_of_page[dst_page] = lpn;
      ++dst.valid_count;
      if (for_wear_leveling)
        stats_.wear_level_relocations += geo_.subpages_per_page;
      else
        stats_.gc_copy_sectors += geo_.subpages_per_page;
      moved_sectors += geo_.subpages_per_page;
      relocate_(lpn, codec_.encode_page(dst_addr));
      now = ack.done;
      continue;
    }

    const auto read = dev_.read_page(src, now);
    ++stats_.flash_reads;
    std::vector<std::uint64_t>& tokens = gc_tokens_;
    tokens.assign(geo_.subpages_per_page, 0);
    for (std::uint32_t s = 0; s < geo_.subpages_per_page; ++s) {
      tokens[s] = read.token[s];
      if (read.status[s] == nand::ReadStatus::kCorrupted ||
          read.status[s] == nand::ReadStatus::kUncorrectable)
        ++stats_.read_failures;
    }
    // Invalidate before rewriting so the copy's accounting stays balanced.
    victim.lpn_of_page[page] = nand::kUnmapped;
    --victim.valid_count;
    --valid_pages_;
    const auto [new_lin, done] = write_page(lpn, tokens, read.done);
    if (for_wear_leveling)
      stats_.wear_level_relocations += geo_.subpages_per_page;
    else
      stats_.gc_copy_sectors += geo_.subpages_per_page;
    moved_sectors += geo_.subpages_per_page;
    relocate_(lpn, new_lin);
    now = done;
  }
  in_gc_ = false;

  const auto ack = dev_.erase_block(chip, blk, now);
  ++stats_.flash_erases;
  if (sink_) {
    const auto copy_kind = for_wear_leveling ? telemetry::OpKind::kWearLevel
                                             : telemetry::OpKind::kGcCopy;
    if (sink_->wants_op(copy_kind))
      sink_->record_op({copy_kind, collect_start, ack.done, moved_sectors});
    const std::uint32_t pe = dev_.pe_cycles(chip, blk);
    sink_->record_block({telemetry::BlockEventKind::kErased, chip, blk,
                         "full", 0, victim.valid_count, pe, ack.done});
    sink_->record_block({telemetry::BlockEventKind::kRetired, chip, blk,
                         "full", 0, 0, pe, ack.done});
  }
  ESP_LOG_DEBUG("%s collected full-page block chip=%u blk=%u moved=%llu",
                for_wear_leveling ? "wear-level" : "gc",
                static_cast<unsigned>(chip), static_cast<unsigned>(blk),
                static_cast<unsigned long long>(moved_sectors));
  victim.owned = false;
  index_remove(chip, blk);
  retire_meta_arrays(victim);
  --blocks_in_use_;
  allocator_.release(chip, blk, dev_.pe_cycles(chip, blk));
  return ack.done;
}

SimTime FullPagePool::static_wear_level(SimTime now,
                                        std::uint32_t pe_threshold) {
  const MaintenanceTimer timer(stats_, &stats_.maint_wear_level_calls,
                               &stats_.maint_wear_level_ns);
  // Least-worn sealed block owned by this pool vs. the most-worn block on
  // the device: a big gap means this block pins cold data on young flash.
  std::optional<std::size_t> coldest;
  std::uint32_t coldest_pe = ~0u;
  // Device-wide maximum is tracked monotonically at erase time; the coldest
  // candidate comes from the wear index (or, in reference mode, the
  // original full-device scan kept as the differential baseline).
  const std::uint32_t max_pe = dev_.max_pe_cycles();
  if (config_.reference_scan_maintenance) {
    for (std::uint32_t chip = 0; chip < geo_.total_chips(); ++chip) {
      for (std::uint32_t blk = 0; blk < geo_.blocks_per_chip; ++blk) {
        const std::size_t idx = block_index(chip, blk);
        const BlockMeta& m = meta_[idx];
        if (!m.owned || m.active || m.next_page < geo_.pages_per_block)
          continue;
        const std::uint32_t pe = dev_.pe_cycles(chip, blk);
        if (pe < coldest_pe) {
          coldest_pe = pe;
          coldest = idx;
        }
      }
    }
  } else {
    const auto top = wear_index_.peek([&](std::uint32_t pe, std::size_t idx) {
      const BlockMeta& m = meta_[idx];
      if (!m.owned || m.active || m.next_page < geo_.pages_per_block)
        return false;
      const auto chip = static_cast<std::uint32_t>(idx / geo_.blocks_per_chip);
      const auto blk = static_cast<std::uint32_t>(idx % geo_.blocks_per_chip);
      return dev_.pe_cycles(chip, blk) == pe;
    });
    if (top) {
      coldest = top->idx;
      coldest_pe = top->pe;
    }
  }
  if (!coldest || max_pe - coldest_pe <= pe_threshold) return now;
  if (allocator_.total_free() == 0) return now;  // no room to relocate into
  return collect_block(*coldest, now, /*for_wear_leveling=*/true);
}

std::vector<std::uint32_t> FullPagePool::owned_pe_cycles() const {
  std::vector<std::uint32_t> pes;
  for (std::uint32_t chip = 0; chip < geo_.total_chips(); ++chip) {
    pes.reserve(pes.size() + owned_by_chip_[chip].size());
    for (const std::uint32_t blk : owned_by_chip_[chip])
      pes.push_back(dev_.pe_cycles(chip, blk));
  }
  return pes;
}

void FullPagePool::fill_health(
    std::span<telemetry::BlockHealth> out) const {
  for (std::uint32_t chip = 0; chip < geo_.total_chips(); ++chip) {
    for (const std::uint32_t blk : owned_by_chip_[chip]) {
      const std::size_t idx = block_index(chip, blk);
      if (idx >= out.size()) continue;
      out[idx].pool =
          static_cast<std::uint8_t>(telemetry::HealthPool::kFull);
      out[idx].valid = meta_[idx].valid_count;
      out[idx].valid_cap = geo_.pages_per_block;
    }
  }
}

void FullPagePool::save_state(util::StateWriter& w) const {
  w.tag("POOL");
  w.u64(meta_.size());
  for (const BlockMeta& m : meta_) {
    w.b(m.owned);
    w.b(m.active);
    w.u32(m.next_page);
    w.u32(m.valid_count);
    w.pod_vec(m.lpn_of_page);
    save_validity_bits(w, m.lpn_of_page);
  }
  w.u64(owned_by_chip_.size());
  for (const auto& owned : owned_by_chip_) w.pod_vec(owned);
  w.u64(active_block_.size());
  for (const auto& ab : active_block_) {
    w.b(ab.has_value());
    w.u32(ab.value_or(0));
  }
  w.pair_vec(util::heap_container(victim_heap_));
  wear_index_.save_state(w);
  w.u32(rr_chip_);
  w.u64(blocks_in_use_);
  w.u64(valid_pages_);
}

void FullPagePool::load_state(util::StateReader& r) {
  r.tag("POOL");
  if (r.u64() != meta_.size())
    throw std::runtime_error("FullPagePool::load_state: block count mismatch");
  for (BlockMeta& m : meta_) {
    m.owned = r.b();
    m.active = r.b();
    m.next_page = r.u32();
    m.valid_count = r.u32();
    r.pod_vec(m.lpn_of_page);
    load_validity_bits(r, m.lpn_of_page, "FullPagePool");
  }
  if (r.u64() != owned_by_chip_.size())
    throw std::runtime_error("FullPagePool::load_state: chip count mismatch");
  for (auto& owned : owned_by_chip_) r.pod_vec(owned);
  if (r.u64() != active_block_.size())
    throw std::runtime_error("FullPagePool::load_state: chip count mismatch");
  for (auto& ab : active_block_) {
    const bool has = r.b();
    const std::uint32_t blk = r.u32();
    ab = has ? std::optional<std::uint32_t>(blk) : std::nullopt;
  }
  r.pair_vec(util::heap_container(victim_heap_));
  wear_index_.load_state(r);
  rr_chip_ = r.u32();
  blocks_in_use_ = r.u64();
  valid_pages_ = r.u64();
  spare_meta_.clear();
  in_gc_ = false;
}

}  // namespace esp::ftl
