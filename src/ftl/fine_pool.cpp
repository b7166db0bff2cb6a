#include "ftl/fine_pool.h"

#include <algorithm>
#include <stdexcept>

namespace esp::ftl {

FinePool::FinePool(nand::NandDevice& dev, BlockAllocator& allocator,
                   const Config& config, FtlStats& stats, PlaceFn place,
                   EvictFn evict_on_gc)
    : dev_(dev),
      allocator_(allocator),
      config_(config),
      stats_(stats),
      place_(std::move(place)),
      evict_on_gc_(std::move(evict_on_gc)),
      geo_(dev.geometry()),
      codec_(geo_),
      meta_(geo_.total_blocks()),
      active_block_(geo_.total_chips()) {
  if (!place_) throw std::invalid_argument("FinePool: place callback required");
}

void FinePool::retire_meta_arrays(BlockMeta& m) {
  spare_meta_.push_back(std::move(m.sector_of_slot));
}

void FinePool::init_meta_arrays(BlockMeta& m) {
  if (!spare_meta_.empty()) {
    m.sector_of_slot = std::move(spare_meta_.back());
    spare_meta_.pop_back();
  }
  const std::size_t slots =
      static_cast<std::size_t>(geo_.pages_per_block) * geo_.subpages_per_page;
  m.sector_of_slot.assign(slots, nand::kUnmapped);
}

bool FinePool::space_pressure() const {
  return allocator_.total_free() <= config_.reserve_free_blocks ||
         blocks_in_use_ >= config_.quota_blocks;
}

bool FinePool::ensure_active(std::uint32_t* chip_out, SimTime now) {
  for (std::uint32_t attempt = 0; attempt < geo_.total_chips(); ++attempt) {
    const std::uint32_t chip = (rr_chip_ + attempt) % geo_.total_chips();
    auto& active = active_block_[chip];
    if (active) {
      BlockMeta& m = meta_[block_index(chip, *active)];
      if (m.next_page < geo_.pages_per_block) {
        *chip_out = chip;
        rr_chip_ = (chip + 1) % geo_.total_chips();
        return true;
      }
      m.active = false;
      push_victim_candidate(block_index(chip, *active));
      wear_index_.push(dev_.pe_cycles(chip, *active),
                       block_index(chip, *active));
      active.reset();
    }
    const auto blk = allocator_.alloc(chip);
    if (!blk) continue;
    BlockMeta& m = meta_[block_index(chip, *blk)];
    m.owned = true;
    m.active = true;
    m.next_page = 0;
    m.valid_count = 0;
    init_meta_arrays(m);
    active = *blk;
    ++blocks_in_use_;
    if (sink_)
      sink_->record_block({telemetry::BlockEventKind::kAllocated, chip, *blk,
                           "fine", 0, 0, dev_.pe_cycles(chip, *blk),
                           now});
    *chip_out = chip;
    rr_chip_ = (chip + 1) % geo_.total_chips();
    return true;
  }
  return false;
}

SimTime FinePool::write_group(std::span<const SectorWrite> group, SimTime now) {
  if (group.empty() || group.size() > geo_.subpages_per_page)
    throw std::logic_error("FinePool::write_group: bad group size");
  if (!in_gc_) now = maybe_gc(now);
  std::uint32_t chip = 0;
  if (!ensure_active(&chip, now))
    throw std::runtime_error(
        "FinePool: out of physical blocks (over-provisioning exhausted)");
  const std::uint32_t blk = *active_block_[chip];
  BlockMeta& m = meta_[block_index(chip, blk)];
  const std::uint32_t page = m.next_page++;

  std::vector<std::uint64_t>& tokens = write_tokens_;
  tokens.assign(geo_.subpages_per_page, 0);
  for (std::size_t i = 0; i < group.size(); ++i) tokens[i] = group[i].token;

  const nand::PageAddr addr{chip, blk, page};
  const auto ack = dev_.program_full(addr, tokens, now);
  ++stats_.flash_prog_full;

  for (std::size_t i = 0; i < group.size(); ++i) {
    const auto slot_idx =
        static_cast<std::size_t>(page) * geo_.subpages_per_page + i;
    m.sector_of_slot[slot_idx] = group[i].sector;
    ++m.valid_count;
    ++valid_sectors_;
    const std::uint64_t sub_lin = codec_.encode_subpage(
        nand::SubpageAddr{addr, static_cast<std::uint32_t>(i)});
    place_(group[i].sector, sub_lin);
  }
  return ack.done;
}

void FinePool::invalidate(std::uint64_t sub_lin) {
  const nand::SubpageAddr addr = codec_.decode_subpage(sub_lin);
  BlockMeta& m = meta_[block_index(addr.page.chip, addr.page.block)];
  const auto slot_idx =
      static_cast<std::size_t>(addr.page.page) * geo_.subpages_per_page +
      addr.slot;
  if (!m.owned || !m.slot_valid(slot_idx))
    throw std::logic_error("FinePool::invalidate: sector not valid");
  m.sector_of_slot[slot_idx] = nand::kUnmapped;
  --m.valid_count;
  --valid_sectors_;
  if (!m.active && m.next_page == geo_.pages_per_block)
    push_victim_candidate(
        block_index(addr.page.chip, addr.page.block));
}

void FinePool::push_victim_candidate(std::size_t idx) {
  victim_heap_.emplace(meta_[idx].valid_count, idx);
}

std::optional<std::size_t> FinePool::pop_victim() {
  while (!victim_heap_.empty()) {
    const auto [count, idx] = victim_heap_.top();
    victim_heap_.pop();
    const BlockMeta& m = meta_[idx];
    if (m.owned && !m.active && m.next_page == geo_.pages_per_block &&
        m.valid_count == count)
      return idx;
  }
  return std::nullopt;
}

SimTime FinePool::maybe_gc(SimTime now) {
  while (space_pressure() && blocks_in_use_ > 0) {
    const SimTime after = collect(now);
    if (after == now && space_pressure()) break;
    now = after;
  }
  return now;
}

SimTime FinePool::collect(SimTime now) {
  const auto victim_idx = pop_victim();
  if (!victim_idx) return now;
  if (meta_[*victim_idx].valid_count ==
      static_cast<std::uint32_t>(geo_.pages_per_block) *
          geo_.subpages_per_page) {
    // Nothing reclaimable: decline (see FullPagePool::collect).
    return now;
  }
  ++stats_.gc_invocations;
  return collect_block(*victim_idx, now, /*for_wear_leveling=*/false);
}

SimTime FinePool::collect_block(std::size_t idx, SimTime now,
                                bool for_wear_leveling) {
  const MaintenanceTimer timer(stats_, nullptr, &stats_.maint_gc_ns);
  const auto chip = static_cast<std::uint32_t>(idx / geo_.blocks_per_chip);
  const auto blk = static_cast<std::uint32_t>(idx % geo_.blocks_per_chip);
  BlockMeta& victim = meta_[idx];
  const std::uint32_t subs = geo_.subpages_per_page;
  in_gc_ = true;
  // Repacks (or log-cleaning merges via evict_on_gc_) and the final erase
  // all attribute to this GC/WL episode.
  const telemetry::CauseScope cause(
      sink_,
      for_wear_leveling ? telemetry::Cause::kWearLevel
                        : telemetry::Cause::kGcCopy,
      idx, now);

  // Gather live sectors page by page (one flash read per page that still
  // holds anything live), then repack them densely into full pages.
  std::vector<SectorWrite>& live = gc_live_;
  live.clear();
  live.reserve(victim.valid_count);
  SimTime t = now;
  for (std::uint32_t page = 0; page < geo_.pages_per_block; ++page) {
    bool any = false;
    for (std::uint32_t s = 0; s < subs; ++s)
      any |= victim.slot_valid(static_cast<std::size_t>(page) * subs + s);
    if (!any) continue;
    const auto read = dev_.read_page(nand::PageAddr{chip, blk, page}, now);
    ++stats_.flash_reads;
    t = std::max(t, read.done);
    for (std::uint32_t s = 0; s < subs; ++s) {
      const auto slot_idx = static_cast<std::size_t>(page) * subs + s;
      if (!victim.slot_valid(slot_idx)) continue;
      if (read.status[s] == nand::ReadStatus::kCorrupted ||
          read.status[s] == nand::ReadStatus::kUncorrectable)
        ++stats_.read_failures;
      live.push_back(SectorWrite{victim.sector_of_slot[slot_idx],
                                 read.token[s]});
      victim.sector_of_slot[slot_idx] = nand::kUnmapped;
      --victim.valid_count;
      --valid_sectors_;
    }
  }
  std::uint64_t copied = 0;
  std::uint64_t evicted = 0;
  if (evict_on_gc_ && !for_wear_leveling) {
    // Log-region cleaning: merge every live sector out of this pool.
    if (!live.empty()) {
      stats_.cold_evictions += live.size();
      evicted = live.size();
      t = evict_on_gc_(live, t);
    }
  } else {
    for (std::size_t i = 0; i < live.size(); i += subs) {
      const std::size_t n = std::min<std::size_t>(subs, live.size() - i);
      t = write_group(std::span<const SectorWrite>(&live[i], n), t);
      if (for_wear_leveling)
        stats_.wear_level_relocations += n;
      else
        stats_.gc_copy_sectors += n;
      copied += n;
    }
  }
  in_gc_ = false;

  const auto ack = dev_.erase_block(chip, blk, t);
  ++stats_.flash_erases;
  if (sink_) {
    const auto copy_kind = for_wear_leveling ? telemetry::OpKind::kWearLevel
                                             : telemetry::OpKind::kGcCopy;
    if (sink_->wants_op(copy_kind))
      sink_->record_op({copy_kind, now, ack.done, copied, evicted});
    const std::uint32_t pe = dev_.pe_cycles(chip, blk);
    sink_->record_block({telemetry::BlockEventKind::kErased, chip, blk,
                         "fine", 0, victim.valid_count, pe, ack.done});
    sink_->record_block({telemetry::BlockEventKind::kRetired, chip, blk,
                         "fine", 0, 0, pe, ack.done});
  }
  victim.owned = false;
  retire_meta_arrays(victim);
  --blocks_in_use_;
  allocator_.release(chip, blk, dev_.pe_cycles(chip, blk));
  return ack.done;
}

SimTime FinePool::static_wear_level(SimTime now,
                                    std::uint32_t pe_threshold) {
  const MaintenanceTimer timer(stats_, &stats_.maint_wear_level_calls,
                               &stats_.maint_wear_level_ns);
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
  if (allocator_.total_free() == 0) return now;
  return collect_block(*coldest, now, /*for_wear_leveling=*/true);
}

void FinePool::fill_health(std::span<telemetry::BlockHealth> out) const {
  const std::size_t n = std::min(out.size(), meta_.size());
  for (std::size_t idx = 0; idx < n; ++idx) {
    if (!meta_[idx].owned) continue;
    out[idx].pool = static_cast<std::uint8_t>(telemetry::HealthPool::kFine);
    out[idx].valid = meta_[idx].valid_count;
    out[idx].valid_cap = geo_.pages_per_block * geo_.subpages_per_page;
  }
}

void FinePool::save_state(util::StateWriter& w) const {
  w.tag("FPOL");
  w.u64(meta_.size());
  for (const BlockMeta& m : meta_) {
    w.b(m.owned);
    w.b(m.active);
    w.u32(m.next_page);
    w.u32(m.valid_count);
    w.pod_vec(m.sector_of_slot);
    save_validity_bits(w, m.sector_of_slot);
  }
  w.u64(active_block_.size());
  for (const auto& ab : active_block_) {
    w.b(ab.has_value());
    w.u32(ab.value_or(0));
  }
  w.pair_vec(util::heap_container(victim_heap_));
  wear_index_.save_state(w);
  w.u32(rr_chip_);
  w.u64(blocks_in_use_);
  w.u64(valid_sectors_);
}

void FinePool::load_state(util::StateReader& r) {
  r.tag("FPOL");
  if (r.u64() != meta_.size())
    throw std::runtime_error("FinePool::load_state: block count mismatch");
  for (BlockMeta& m : meta_) {
    m.owned = r.b();
    m.active = r.b();
    m.next_page = r.u32();
    m.valid_count = r.u32();
    r.pod_vec(m.sector_of_slot);
    load_validity_bits(r, m.sector_of_slot, "FinePool");
  }
  if (r.u64() != active_block_.size())
    throw std::runtime_error("FinePool::load_state: chip count mismatch");
  for (auto& ab : active_block_) {
    const bool has = r.b();
    const std::uint32_t blk = r.u32();
    ab = has ? std::optional<std::uint32_t>(blk) : std::nullopt;
  }
  r.pair_vec(util::heap_container(victim_heap_));
  wear_index_.load_state(r);
  rr_chip_ = r.u32();
  blocks_in_use_ = r.u64();
  valid_sectors_ = r.u64();
  spare_meta_.clear();
  in_gc_ = false;
}

}  // namespace esp::ftl
