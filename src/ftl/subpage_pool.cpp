#include "ftl/subpage_pool.h"

#include <algorithm>
#include <stdexcept>

#include "util/logger.h"
#include "util/prefetch.h"

namespace esp::ftl {

SubpagePool::SubpagePool(nand::NandDevice& dev, BlockAllocator& allocator,
                         const Config& config, FtlStats& stats, PlaceFn place,
                         EvictFn evict, HotFn hot, KeptFn kept)
    : dev_(dev),
      allocator_(allocator),
      config_(config),
      stats_(stats),
      place_(std::move(place)),
      evict_(std::move(evict)),
      hot_(std::move(hot)),
      kept_(std::move(kept)),
      geo_(dev.geometry()),
      codec_(geo_),
      meta_(geo_.total_blocks()),
      owned_by_chip_(geo_.total_chips()),
      active_block_(geo_.total_chips()),
      // Bucket width: a fraction of the eviction age so the boundary
      // bucket a scan re-examines holds only the youngest ~3% of the
      // retention window's writes.
      retention_queue_(config.retention_evict_age / 32.0) {
  if (!place_ || !evict_ || !hot_ || !kept_)
    throw std::invalid_argument("SubpagePool: all callbacks required");
  if (config_.quota_blocks == 0)
    throw std::invalid_argument("SubpagePool: quota_blocks must be > 0");
}

void SubpagePool::index_add(std::uint32_t chip, std::uint32_t block) {
  auto& owned = owned_by_chip_[chip];
  owned.insert(std::lower_bound(owned.begin(), owned.end(), block), block);
}

void SubpagePool::index_remove(std::uint32_t chip, std::uint32_t block) {
  auto& owned = owned_by_chip_[chip];
  const auto it = std::lower_bound(owned.begin(), owned.end(), block);
  if (it != owned.end() && *it == block) owned.erase(it);
}

void SubpagePool::note_sealed(std::size_t idx) {
  const BlockMeta& m = meta_[idx];
  const auto chip = static_cast<std::uint32_t>(idx / geo_.blocks_per_chip);
  const auto blk = static_cast<std::uint32_t>(idx % geo_.blocks_per_chip);
  wear_index_.push(dev_.pe_cycles(chip, blk), idx);
  if (m.valid_count == 0) note_idle_candidate(idx);
}

void SubpagePool::note_idle_candidate(std::size_t idx) {
  idle_candidates_.push_back(idx);
}

void SubpagePool::retire_meta_arrays(BlockMeta& m) {
  auto& spare = spare_meta_.emplace_back();
  spare.sector_of_page = std::move(m.sector_of_page);
  spare.written_at = std::move(m.written_at);
}

void SubpagePool::init_meta_arrays(BlockMeta& m) {
  if (!spare_meta_.empty()) {
    auto& spare = spare_meta_.back();
    m.sector_of_page = std::move(spare.sector_of_page);
    m.written_at = std::move(spare.written_at);
    spare_meta_.pop_back();
  }
  m.sector_of_page.assign(geo_.pages_per_block, nand::kUnmapped);
  m.written_at.assign(geo_.pages_per_block, 0.0);
}

bool SubpagePool::can_alloc_fresh() const {
  // During GC the destination block is the paper's "free block reserved for
  // garbage collection": ONE extra block per pass, beyond quota if needed
  // (the victim's erase at the end of the pass restores the balance). It
  // may dip halfway into the allocator reserve -- the other half stays
  // available for the full-page region's own GC, which the eviction
  // fallback depends on.
  if (in_gc_)
    return gc_dest_allocs_ < 1 &&
           allocator_.total_free() > config_.reserve_free_blocks / 2;
  return blocks_in_use_ < config_.quota_blocks &&
         allocator_.total_free() >
             std::max(config_.reserve_free_blocks,
                      config_.expand_reserve_blocks);
}

SimTime SubpagePool::forward_page(std::uint32_t chip, std::uint32_t blk,
                                  std::uint32_t page, std::uint32_t to_slot,
                                  SimTime now) {
  const telemetry::CauseScope cause(
      sink_, telemetry::Cause::kForwardMigration, to_slot, now);
  BlockMeta& m = meta_[block_index(chip, blk)];
  const nand::PageAddr pa{chip, blk, page};
  // The live data sits in the page's latest programmed slot.
  const auto from_slot = to_slot - 1;
  const auto read = dev_.read_subpage(nand::SubpageAddr{pa, from_slot}, now);
  ++stats_.flash_reads;
  if (read.status != nand::ReadStatus::kOk) ++stats_.read_failures;
  const auto ack =
      dev_.program_subpage(nand::SubpageAddr{pa, to_slot}, read.token,
                           read.done);
  ++stats_.flash_prog_sub;
  ++stats_.forward_migrations;
  stats_.small_extra_flash_bytes += geo_.subpage_bytes();
  m.written_at[page] = read.done;
  if (!config_.reference_scan_maintenance)
    retention_queue_.push(block_index(chip, blk), page, read.done);
  place_(m.sector_of_page[page],
         codec_.encode_subpage(nand::SubpageAddr{pa, to_slot}));
  if (sink_ && sink_->wants_op(telemetry::OpKind::kForwardMigration))
    sink_->record_op(
        {telemetry::OpKind::kForwardMigration, now, ack.done, to_slot});
  return ack.done;
}

bool SubpagePool::acquire_slot(std::uint32_t chip, SimTime& t,
                               std::uint32_t* blk, std::uint32_t* page,
                               std::uint32_t* slot) {
  for (;;) {
    auto& active = active_block_[chip];
    if (active) {
      BlockMeta& m = meta_[block_index(chip, *active)];
      while (m.cursor < geo_.pages_per_block) {
        const std::uint32_t p = m.cursor;
        if (m.page_valid(p)) {
          // Valid data in the way: forward it into this level's slot and
          // keep walking (the paper's Fig. 7(c) migration).
          t = forward_page(chip, *active, p, m.level, t);
          ++m.cursor;
          continue;
        }
        *blk = *active;
        *page = p;
        *slot = m.level;
        ++m.cursor;
        return true;
      }
      m.active = false;  // sealed at this level
      note_sealed(block_index(chip, *active));
      active.reset();
    }
    // Prefer opening a fresh block (keeps every block's 0th subpages in
    // play before any 1st subpage is written).
    if (can_alloc_fresh()) {
      if (const auto fresh = allocator_.alloc(chip)) {
        if (in_gc_) ++gc_dest_allocs_;
        BlockMeta& m = meta_[block_index(chip, *fresh)];
        m.owned = true;
        index_add(chip, *fresh);
        m.active = true;
        m.level = 0;
        m.cursor = 0;
        m.valid_count = 0;
        init_meta_arrays(m);
        active = *fresh;
        ++blocks_in_use_;
        if (sink_)
          sink_->record_block({telemetry::BlockEventKind::kAllocated, chip,
                               *fresh, "sub", 0, 0,
                               dev_.pe_cycles(chip, *fresh), t});
        continue;
      }
    }
    // Advance the best sealed block on this chip to its next level:
    // a block with no valid subpages first, otherwise fewest valid. Blocks
    // denser than the advance threshold are left for GC -- forwarding
    // nearly-full blocks costs a subpage write per page for almost no free
    // slots, while GC's hot/cold filter can demote the data instead.
    const auto advance_limit = static_cast<std::uint32_t>(
        config_.advance_max_valid_fraction * geo_.pages_per_block);
    std::optional<std::uint32_t> best;
    std::uint32_t best_valid = ~0u;
    for (const std::uint32_t b : owned_by_chip_[chip]) {
      const BlockMeta& m = meta_[block_index(chip, b)];
      if (m.active) continue;
      if (m.level + 1u >= geo_.subpages_per_page) continue;  // maxed out
      if (m.valid_count > advance_limit) continue;           // too dense
      if (m.valid_count < best_valid) {
        best_valid = m.valid_count;
        best = b;
        if (best_valid == 0) break;
      }
    }
    if (!best) return false;  // chip exhausted at every level
    BlockMeta& m = meta_[block_index(chip, *best)];
    ++m.level;
    m.cursor = 0;
    m.active = true;
    active = *best;
    if (sink_)
      sink_->record_block({telemetry::BlockEventKind::kLevelAdvanced, chip,
                           *best, "sub", m.level, m.valid_count,
                           dev_.pe_cycles(chip, *best), t});
  }
}

std::pair<std::uint64_t, SimTime> SubpagePool::write_sector(
    std::uint64_t sector, std::uint64_t token, SimTime now) {
  if (auto placed = try_write_sector(sector, token, now)) return *placed;
  throw std::runtime_error(
      "SubpagePool: no free subpage slot available after GC");
}

std::optional<std::pair<std::uint64_t, SimTime>> SubpagePool::try_write_sector(
    std::uint64_t sector, std::uint64_t token, SimTime now) {
  auto program_at = [&](std::uint32_t chip, std::uint32_t blk,
                        std::uint32_t page, std::uint32_t slot, SimTime t)
      -> std::pair<std::uint64_t, SimTime> {
    rr_chip_ = (chip + 1) % geo_.total_chips();
    const nand::PageAddr pa{chip, blk, page};
    const auto ack = dev_.program_subpage(nand::SubpageAddr{pa, slot}, token, t);
    ++stats_.flash_prog_sub;
    BlockMeta& m = meta_[block_index(chip, blk)];
    m.sector_of_page[page] = sector;
    m.written_at[page] = t;
    if (!config_.reference_scan_maintenance)
      retention_queue_.push(block_index(chip, blk), page, t);
    ++m.valid_count;
    ++valid_sectors_;
    const std::uint64_t sub_lin =
        codec_.encode_subpage(nand::SubpageAddr{pa, slot});
    place_(sector, sub_lin);
    return {sub_lin, ack.done};
  };

  for (int round = 0; round < 2; ++round) {
    for (std::uint32_t attempt = 0; attempt < geo_.total_chips(); ++attempt) {
      const std::uint32_t chip = (rr_chip_ + attempt) % geo_.total_chips();
      SimTime t = now;
      std::uint32_t blk = 0, page = 0, slot = 0;
      if (acquire_slot(chip, t, &blk, &page, &slot))
        return program_at(chip, blk, page, slot, t);
      // The rotation's primary chip is exhausted: reclaim on THAT chip so
      // writes keep striping over every channel instead of piling onto the
      // survivors (per-chip write points are the parallelism the paper's
      // multi-channel design depends on).
      if (!in_gc_ && round == 0 && attempt == 0) {
        const SimTime after = collect(now, chip);
        if (after != now) {
          now = after;
          t = now;
          if (acquire_slot(chip, t, &blk, &page, &slot))
            return program_at(chip, blk, page, slot, t);
        }
      }
    }
    if (round == 0 && !in_gc_) {
      // Every chip is exhausted: reclaim a small pool of erased blocks so
      // subsequent writes spread across fresh level-0 slots.
      for (std::uint32_t i = 0; i < std::max(1u, config_.gc_free_target);
           ++i) {
        const SimTime after = collect(now);
        if (after == now) break;  // no more victims
        now = after;
      }
    } else {
      break;
    }
  }
  return std::nullopt;
}

void SubpagePool::invalidate(std::uint64_t sub_lin) {
  const nand::SubpageAddr addr = codec_.decode_subpage(sub_lin);
  BlockMeta& m = meta_[block_index(addr.page.chip, addr.page.block)];
  if (!m.owned || !m.page_valid(addr.page.page))
    throw std::logic_error("SubpagePool::invalidate: page not valid");
  // Guard against stale pointers: the live copy must be the page's latest
  // programmed slot.
  const auto programmed = dev_.slots_programmed(addr.page);
  if (addr.slot + 1 != programmed)
    throw std::logic_error(
        "SubpagePool::invalidate: address does not match live slot");
  m.sector_of_page[addr.page.page] = nand::kUnmapped;
  --m.valid_count;
  --valid_sectors_;
  if (m.valid_count == 0 && !m.active)
    note_idle_candidate(block_index(addr.page.chip, addr.page.block));
}

SimTime SubpagePool::collect(SimTime now,
                             std::optional<std::uint32_t> prefer_chip) {
  // Victim: owned, non-active block with the fewest valid subpages,
  // restricted to prefer_chip when it has any candidate.
  std::optional<std::size_t> victim_idx;
  std::uint32_t best_valid = ~0u;
  auto scan_chip = [&](std::uint32_t chip) {
    for (const std::uint32_t b : owned_by_chip_[chip]) {
      const std::size_t idx = block_index(chip, b);
      const BlockMeta& m = meta_[idx];
      if (m.active) continue;
      if (m.valid_count < best_valid) {
        best_valid = m.valid_count;
        victim_idx = idx;
      }
    }
  };
  if (prefer_chip) scan_chip(*prefer_chip);
  if (!victim_idx)
    for (std::uint32_t chip = 0; chip < geo_.total_chips(); ++chip)
      scan_chip(chip);
  if (!victim_idx) return now;
  ++stats_.gc_invocations;
  return collect_block(*victim_idx, now, /*for_wear_leveling=*/false);
}

SimTime SubpagePool::collect_block(std::size_t idx, SimTime now,
                                   bool for_wear_leveling) {
  const MaintenanceTimer timer(stats_, nullptr, &stats_.maint_gc_ns);
  in_gc_ = true;
  gc_dest_allocs_ = 0;

  const auto chip = static_cast<std::uint32_t>(idx / geo_.blocks_per_chip);
  const auto blk = static_cast<std::uint32_t>(idx % geo_.blocks_per_chip);
  // Everything in this pass -- forwards, hot rewrites, evictions into the
  // full-page region, the final erase -- attributes to this GC episode.
  const telemetry::CauseScope cause(
      sink_,
      for_wear_leveling ? telemetry::Cause::kWearLevel
                        : telemetry::Cause::kGcCopy,
      idx, now);
  BlockMeta& victim = meta_[idx];
  // Lock the victim so the hot-rewrite path below can neither advance it
  // nor write into it -- its erase is already committed.
  victim.active = true;
  SimTime t = now;
  std::uint64_t kept_sectors = 0;
  std::vector<SectorWrite>& evictions = gc_evictions_;
  evictions.clear();
  evictions.reserve(victim.valid_count);
  for (std::uint32_t page = 0; page < geo_.pages_per_block; ++page) {
    if (!victim.page_valid(page)) continue;
    const std::uint64_t sector = victim.sector_of_page[page];
    const auto live_slot =
        dev_.slots_programmed(nand::PageAddr{chip, blk, page}) - 1;
    const auto read = dev_.read_subpage(
        nand::SubpageAddr{nand::PageAddr{chip, blk, page}, live_slot}, t);
    ++stats_.flash_reads;
    if (read.status != nand::ReadStatus::kOk) ++stats_.read_failures;
    victim.sector_of_page[page] = nand::kUnmapped;
    --victim.valid_count;
    --valid_sectors_;
    if (hot_(sector)) {
      // Updated since entering the region: likely to be updated again --
      // keep it close (rewrite into the region). If the region is too
      // tight to accept it, demote it to the full-page region instead.
      if (const auto placed =
              try_write_sector(sector, read.token, read.done)) {
        if (for_wear_leveling)
          ++stats_.wear_level_relocations;
        else
          ++stats_.gc_copy_sectors;
        stats_.small_extra_flash_bytes += geo_.subpage_bytes();
        kept_(sector);  // must be updated again to stay hot next time
        ++kept_sectors;
        t = placed->second;
        continue;
      }
    }
    // Never updated here (or region full): cold -- batch for eviction to
    // the full-page region, merged per logical page by the receiver.
    ++stats_.cold_evictions;
    evictions.push_back(SectorWrite{sector, read.token});
    t = std::max(t, read.done);
  }
  if (!evictions.empty()) t = evict_(evictions, t, /*retention=*/false);

  const auto ack = dev_.erase_block(chip, blk, t);
  ++stats_.flash_erases;
  if (sink_) {
    const std::uint32_t pe = dev_.pe_cycles(chip, blk);
    sink_->record_block({telemetry::BlockEventKind::kErased, chip, blk, "sub",
                         victim.level, victim.valid_count, pe, ack.done});
    sink_->record_block({telemetry::BlockEventKind::kRetired, chip, blk,
                         "sub", 0, 0, pe, ack.done});
  }
  victim.owned = false;
  index_remove(chip, blk);
  victim.active = false;
  retire_meta_arrays(victim);
  --blocks_in_use_;
  allocator_.release(chip, blk, dev_.pe_cycles(chip, blk));
  in_gc_ = false;
  if (sink_) {
    const auto copy_kind = for_wear_leveling ? telemetry::OpKind::kWearLevel
                                             : telemetry::OpKind::kGcCopy;
    if (sink_->wants_op(copy_kind))
      sink_->record_op({copy_kind, now, ack.done, kept_sectors,
                        evictions.size()});
  }
  ESP_LOG_DEBUG("%s collected subpage block chip=%u blk=%u kept=%llu "
                "evicted=%zu",
                for_wear_leveling ? "wear-level" : "gc",
                static_cast<unsigned>(chip), static_cast<unsigned>(blk),
                static_cast<unsigned long long>(kept_sectors),
                evictions.size());
  return ack.done;
}

SimTime SubpagePool::release_idle_block(std::uint32_t chip, std::uint32_t b,
                                        SimTime now) {
  BlockMeta& m = meta_[block_index(chip, b)];
  // Keep pristine never-programmed blocks? They do not exist here: a
  // block is only owned once it has received writes.
  ++stats_.gc_invocations;  // garbage-only collection, zero copies
  const telemetry::CauseScope cause(sink_, telemetry::Cause::kGcCopy,
                                    block_index(chip, b), now);
  const auto ack = dev_.erase_block(chip, b, now);
  ++stats_.flash_erases;
  if (sink_) {
    const std::uint32_t pe = dev_.pe_cycles(chip, b);
    sink_->record_block({telemetry::BlockEventKind::kErased, chip, b, "sub",
                         m.level, 0, pe, ack.done});
    sink_->record_block({telemetry::BlockEventKind::kRetired, chip, b, "sub",
                         0, 0, pe, ack.done});
  }
  m.owned = false;
  index_remove(chip, b);
  retire_meta_arrays(m);
  --blocks_in_use_;
  allocator_.release(chip, b, dev_.pe_cycles(chip, b));
  return ack.done;
}

SimTime SubpagePool::release_idle_blocks(SimTime now) {
  const MaintenanceTimer timer(stats_, &stats_.maint_release_idle_calls,
                               &stats_.maint_release_idle_ns);
  if (config_.reference_scan_maintenance) {
    // Original O(owned) sweep, kept as the differential baseline.
    for (std::uint32_t chip = 0; chip < geo_.total_chips(); ++chip) {
      auto& owned = owned_by_chip_[chip];
      for (std::size_t i = 0; i < owned.size();) {
        const std::uint32_t b = owned[i];
        const BlockMeta& m = meta_[block_index(chip, b)];
        if (m.active || m.valid_count != 0) {
          ++i;
          continue;
        }
        now = release_idle_block(chip, b, now);  // removes owned[i]
      }
    }
    return now;
  }
  // Indexed: only blocks recorded at an idle transition since the last call
  // are candidates. Sorting ascending reproduces the sweep's
  // chip-asc/block-asc release order; stale entries (re-activated, refilled
  // or released blocks) fail re-validation and drop out. Blocks skipped
  // here are re-recorded at their next idle transition, so clearing the
  // list afterwards loses nothing.
  std::sort(idle_candidates_.begin(), idle_candidates_.end());
  idle_candidates_.erase(
      std::unique(idle_candidates_.begin(), idle_candidates_.end()),
      idle_candidates_.end());
  for (const std::size_t idx : idle_candidates_) {
    const BlockMeta& m = meta_[idx];
    if (!m.owned || m.active || m.valid_count != 0) continue;
    now = release_idle_block(
        static_cast<std::uint32_t>(idx / geo_.blocks_per_chip),
        static_cast<std::uint32_t>(idx % geo_.blocks_per_chip), now);
  }
  idle_candidates_.clear();
  return now;
}

SimTime SubpagePool::static_wear_level(SimTime now,
                                       std::uint32_t pe_threshold) {
  const MaintenanceTimer timer(stats_, &stats_.maint_wear_level_calls,
                               &stats_.maint_wear_level_ns);
  std::optional<std::size_t> coldest;
  std::uint32_t coldest_pe = ~0u;
  // Device-wide maximum is tracked monotonically at erase time; the coldest
  // candidate comes from the wear index (or, in reference mode, a sweep
  // over this pool's own blocks).
  const std::uint32_t max_pe = dev_.max_pe_cycles();
  if (config_.reference_scan_maintenance) {
    for (std::uint32_t chip = 0; chip < geo_.total_chips(); ++chip) {
      for (const std::uint32_t b : owned_by_chip_[chip]) {
        const std::size_t idx = block_index(chip, b);
        if (meta_[idx].active) continue;
        const std::uint32_t pe = dev_.pe_cycles(chip, b);
        if (pe < coldest_pe) {
          coldest_pe = pe;
          coldest = idx;
        }
      }
    }
  } else {
    const auto top = wear_index_.peek([&](std::uint32_t pe, std::size_t idx) {
      const BlockMeta& m = meta_[idx];
      if (!m.owned || m.active) return false;
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

SimTime SubpagePool::retention_evict_pages(std::uint32_t chip, std::uint32_t b,
                                           std::span<const std::uint32_t> pages,
                                           SimTime t) {
  BlockMeta& m = meta_[block_index(chip, b)];
  const SimTime block_start = t;
  retention_evictions_.clear();
  for (const std::uint32_t page : pages) {
    if (!m.page_valid(page)) continue;  // duplicate queue entries
    const std::uint64_t sector = m.sector_of_page[page];
    const auto live_slot =
        dev_.slots_programmed(nand::PageAddr{chip, b, page}) - 1;
    const auto read = dev_.read_subpage(
        nand::SubpageAddr{nand::PageAddr{chip, b, page}, live_slot}, t);
    ++stats_.flash_reads;
    if (read.status != nand::ReadStatus::kOk) ++stats_.read_failures;
    m.sector_of_page[page] = nand::kUnmapped;
    --m.valid_count;
    --valid_sectors_;
    ++stats_.retention_evictions;
    retention_evictions_.push_back(SectorWrite{sector, read.token});
    t = std::max(t, read.done);
  }
  if (!retention_evictions_.empty()) {
    const telemetry::CauseScope cause(sink_, telemetry::Cause::kRetentionEvict,
                                      block_index(chip, b), block_start);
    t = evict_(retention_evictions_, t, /*retention=*/true);
    if (sink_)
      sink_->record_op({telemetry::OpKind::kRetentionEvict, block_start, t,
                        retention_evictions_.size()});
  }
  if (m.valid_count == 0 && !m.active) note_idle_candidate(block_index(chip, b));
  return t;
}

SimTime SubpagePool::retention_scan(SimTime now) {
  const MaintenanceTimer timer(stats_, &stats_.maint_retention_calls,
                               &stats_.maint_retention_ns);
  return config_.reference_scan_maintenance ? retention_scan_reference(now)
                                            : retention_scan_indexed(now);
}

SimTime SubpagePool::retention_scan_reference(SimTime now) {
  SimTime t = now;
  for (std::uint32_t chip = 0; chip < geo_.total_chips(); ++chip) {
    for (const std::uint32_t b : owned_by_chip_[chip]) {
      BlockMeta& m = meta_[block_index(chip, b)];
      if (m.valid_count == 0) continue;
      retention_pages_.clear();
      for (std::uint32_t page = 0; page < geo_.pages_per_block; ++page) {
        if (!m.page_valid(page)) continue;
        if (now - m.written_at[page] <= config_.retention_evict_age) continue;
        retention_pages_.push_back(page);
      }
      if (!retention_pages_.empty())
        t = retention_evict_pages(chip, b, retention_pages_, t);
    }
  }
  return t;
}

SimTime SubpagePool::retention_scan_indexed(SimTime now) {
  retention_expired_.clear();
  // Exact same age comparison as the reference walk -- the conservative
  // bucket cutoff only bounds which buckets are examined.
  retention_queue_.collect_expired(
      now - config_.retention_evict_age,
      [&](SimTime written_at) {
        return now - written_at > config_.retention_evict_age;
      },
      retention_expired_);
  // Gather before use: hint every entry's block metadata, then (with those
  // lines in flight or warm) its page entries, so the stale filter's
  // misses overlap instead of serializing. Hints only (util/prefetch.h).
  for (const auto& e : retention_expired_)
    util::prefetch(&meta_[e.block_idx]);
  for (const auto& e : retention_expired_) {
    const BlockMeta& m = meta_[e.block_idx];
    if (!m.owned) continue;
    util::prefetch(&m.sector_of_page[e.page]);
    util::prefetch(&m.written_at[e.page]);
  }
  // Drop stale entries: the decision depends only on (owned, valid,
  // written_at), so an entry matching all three is exactly a page the
  // reference walk would evict now.
  std::size_t kept = 0;
  for (const auto& e : retention_expired_) {
    const BlockMeta& m = meta_[e.block_idx];
    if (m.owned && m.page_valid(e.page) &&
        m.written_at[e.page] == e.written_at)
      retention_expired_[kept++] = e;
  }
  retention_expired_.resize(kept);
  // (block, page) ascending == the reference walk's chip-asc/block-asc/
  // page-asc eviction order; grouping per block reproduces its per-block
  // eviction batches.
  std::sort(retention_expired_.begin(), retention_expired_.end(),
            [](const RetentionQueue::Entry& a, const RetentionQueue::Entry& b) {
              return a.block_idx != b.block_idx ? a.block_idx < b.block_idx
                                                : a.page < b.page;
            });
  // The eviction loop reads every surviving page's live slot: hint the
  // device pages ahead of it.
  for (const auto& e : retention_expired_)
    dev_.prefetch_page(nand::PageAddr{
        static_cast<std::uint32_t>(e.block_idx / geo_.blocks_per_chip),
        static_cast<std::uint32_t>(e.block_idx % geo_.blocks_per_chip),
        e.page});
  SimTime t = now;
  for (std::size_t i = 0; i < retention_expired_.size();) {
    const std::size_t idx = retention_expired_[i].block_idx;
    retention_pages_.clear();
    for (; i < retention_expired_.size() &&
           retention_expired_[i].block_idx == idx;
         ++i)
      retention_pages_.push_back(retention_expired_[i].page);
    t = retention_evict_pages(
        static_cast<std::uint32_t>(idx / geo_.blocks_per_chip),
        static_cast<std::uint32_t>(idx % geo_.blocks_per_chip),
        retention_pages_, t);
  }
  return t;
}

std::vector<std::uint32_t> SubpagePool::owned_pe_cycles() const {
  std::vector<std::uint32_t> pes;
  for (std::uint32_t chip = 0; chip < geo_.total_chips(); ++chip) {
    pes.reserve(pes.size() + owned_by_chip_[chip].size());
    for (const std::uint32_t b : owned_by_chip_[chip])
      pes.push_back(dev_.pe_cycles(chip, b));
  }
  return pes;
}

void SubpagePool::fill_health(
    std::span<telemetry::BlockHealth> out) const {
  for (std::uint32_t chip = 0; chip < geo_.total_chips(); ++chip) {
    for (const std::uint32_t blk : owned_by_chip_[chip]) {
      const std::size_t idx = block_index(chip, blk);
      if (idx >= out.size()) continue;
      out[idx].pool = static_cast<std::uint8_t>(telemetry::HealthPool::kSub);
      out[idx].level = meta_[idx].level;
      out[idx].valid = meta_[idx].valid_count;
      out[idx].valid_cap = geo_.pages_per_block;
    }
  }
}

void SubpagePool::save_state(util::StateWriter& w) const {
  w.tag("SPOL");
  w.u64(meta_.size());
  for (const BlockMeta& m : meta_) {
    w.b(m.owned);
    w.b(m.active);
    w.u8(m.level);
    w.u32(m.cursor);
    w.u32(m.valid_count);
    w.pod_vec(m.sector_of_page);
    save_validity_bits(w, m.sector_of_page);
    w.pod_vec(m.written_at);
  }
  w.u64(owned_by_chip_.size());
  for (const auto& owned : owned_by_chip_) w.pod_vec(owned);
  w.u64(active_block_.size());
  for (const auto& ab : active_block_) {
    w.b(ab.has_value());
    w.u32(ab.value_or(0));
  }
  retention_queue_.save_state(w);
  wear_index_.save_state(w);
  w.pod_vec(idle_candidates_);
  w.u32(rr_chip_);
  w.u64(blocks_in_use_);
  w.u64(valid_sectors_);
}

void SubpagePool::load_state(util::StateReader& r) {
  r.tag("SPOL");
  if (r.u64() != meta_.size())
    throw std::runtime_error("SubpagePool::load_state: block count mismatch");
  for (BlockMeta& m : meta_) {
    m.owned = r.b();
    m.active = r.b();
    m.level = r.u8();
    m.cursor = r.u32();
    m.valid_count = r.u32();
    r.pod_vec(m.sector_of_page);
    load_validity_bits(r, m.sector_of_page, "SubpagePool");
    r.pod_vec(m.written_at);
  }
  if (r.u64() != owned_by_chip_.size())
    throw std::runtime_error("SubpagePool::load_state: chip count mismatch");
  for (auto& owned : owned_by_chip_) r.pod_vec(owned);
  if (r.u64() != active_block_.size())
    throw std::runtime_error("SubpagePool::load_state: chip count mismatch");
  for (auto& ab : active_block_) {
    const bool has = r.b();
    const std::uint32_t blk = r.u32();
    ab = has ? std::optional<std::uint32_t>(blk) : std::nullopt;
  }
  retention_queue_.load_state(r);
  wear_index_.load_state(r);
  r.pod_vec(idle_candidates_);
  rr_chip_ = r.u32();
  blocks_in_use_ = r.u64();
  valid_sectors_ = r.u64();
  spare_meta_.clear();
  in_gc_ = false;
  gc_dest_allocs_ = 0;
}

}  // namespace esp::ftl
