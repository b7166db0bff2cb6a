#include "ftl/sub_ftl.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "telemetry/metrics.h"
#include "util/logger.h"
#include "util/prefetch.h"

namespace esp::ftl {
namespace {

std::uint64_t subpage_quota(const nand::Geometry& geo, double fraction) {
  const auto quota = static_cast<std::uint64_t>(
      std::llround(fraction * static_cast<double>(geo.total_blocks())));
  return std::max<std::uint64_t>(quota, geo.total_chips());
}

}  // namespace

SubFtl::SubFtl(nand::NandDevice& dev, const Config& config)
    : dev_(dev),
      config_(config),
      geo_(dev.geometry()),
      codec_(geo_),
      allocator_(geo_),
      // No static quota on the full-page region: block types are decided
      // at program time (paper Sec. 4.2), so blocks the subpage region is
      // not actually using remain available here. Space pressure is
      // governed by the shared allocator's reserve floor.
      pool_full_(dev, allocator_,
                 FullPagePool::Config{/*quota_blocks=*/~0ull,
                                      config.gc_reserve_blocks,
                                      config.use_copyback,
                                      config.reference_scan_maintenance},
                 stats_,
                 [this](std::uint64_t lpn, std::uint64_t new_lin) {
                   l2p_[lpn] = new_lin;
                 }),
      pool_sub_(dev, allocator_,
                SubpagePool::Config{
                    .quota_blocks =
                        subpage_quota(geo_, config.subpage_region_fraction),
                    .reserve_free_blocks = config.gc_reserve_blocks,
                    .expand_reserve_blocks =
                        config.gc_reserve_blocks +
                        std::max<std::size_t>(geo_.total_blocks() / 32,
                                              geo_.total_chips()),
                    .retention_evict_age = config.retention_evict_age,
                    .gc_free_target = config.gc_free_target,
                    .advance_max_valid_fraction =
                        config.advance_max_valid_fraction,
                    .reference_scan_maintenance =
                        config.reference_scan_maintenance},
                stats_,
                [this](std::uint64_t sector, std::uint64_t new_lin) {
                  place_subpage(sector, new_lin);
                },
                [this](std::span<const SectorWrite> batch, SimTime now,
                       bool retention) {
                  return evict_batch(batch, now, retention);
                },
                [this](std::uint64_t sector) -> bool {
                  return sectors_[sector].hot();
                },
                [this](std::uint64_t sector) {
                  sectors_[sector].set_hot(false);
                }),
      buffer_(config.buffer_sectors) {
  check_subpage_index_fits(geo_);
  if (config_.logical_sectors == 0)
    throw std::invalid_argument("SubFtl: logical_sectors must be > 0");
  if (config_.subpage_region_fraction <= 0.0 ||
      config_.subpage_region_fraction >= 1.0)
    throw std::invalid_argument(
        "SubFtl: subpage_region_fraction must be in (0, 1)");
  const std::uint32_t subs = geo_.subpages_per_page;
  const std::uint64_t lpns = (config_.logical_sectors + subs - 1) / subs;
  // Hard feasibility, worst case: every logical page valid and cold in the
  // full-page region while the subpage region sits at its quota. Configs
  // near this bound still work -- the region stops expanding under space
  // pressure and GC falls back gracefully -- but beyond it the data
  // literally cannot fit.
  const std::uint64_t region_pages =
      pool_sub_.config().quota_blocks * geo_.pages_per_block;
  if (lpns + region_pages > geo_.total_pages())
    throw std::invalid_argument(
        "SubFtl: logical space plus subpage-region quota exceeds physical "
        "capacity; reduce logical_sectors or subpage_region_fraction");
  l2p_.assign(lpns, nand::kUnmapped);
  sectors_.assign(config_.logical_sectors, SectorRecord{});
}

void SubFtl::check_subpage_index_fits(const nand::Geometry& geo) {
  if (geo.total_subpages() > SectorRecord::kNotInRegion)
    throw std::invalid_argument(
        "SubFtl: geometry has " + std::to_string(geo.total_subpages()) +
        " linear subpage addresses; the per-sector record holds at most " +
        std::to_string(SectorRecord::kNotInRegion));
}

void SubFtl::check_range(std::uint64_t sector, std::uint32_t count) const {
  if (count == 0 || sector + count > config_.logical_sectors)
    throw std::out_of_range("SubFtl: sector range outside logical space");
}

void SubFtl::drop_subpage_copy(std::uint64_t sector) {
  SectorRecord& rec = sectors_[sector];
  if (!rec.in_region()) return;
  pool_sub_.invalidate(rec.sub_lin);
  rec.sub_lin = SectorRecord::kNotInRegion;
  rec.set_hot(false);
  --sub_entries_;
}

void SubFtl::place_subpage(std::uint64_t sector, std::uint64_t new_lin) {
  SectorRecord& rec = sectors_[sector];
  if (!rec.in_region()) ++sub_entries_;
  rec.sub_lin = static_cast<std::uint32_t>(new_lin);
}

SimTime SubFtl::write_full_lpn(std::uint64_t lpn, const BufferedSector* group,
                               SimTime now) {
  const std::uint32_t subs = geo_.subpages_per_page;
  std::array<std::uint64_t, nand::kMaxSubpagesPerPage> buf;
  const std::span<std::uint64_t> tokens(buf.data(), subs);
  std::uint64_t small_sectors = 0;
  for (std::uint32_t s = 0; s < subs; ++s) {
    // The fresh full page supersedes any subpage-region copy.
    drop_subpage_copy(group[s].sector);
    tokens[s] = group[s].token;
    if (group[s].small) ++small_sectors;
  }
  if (l2p_[lpn] != nand::kUnmapped) {
    pool_full_.invalidate(l2p_[lpn]);
    l2p_[lpn] = nand::kUnmapped;
  }
  const auto [new_lin, done] = pool_full_.write_page(lpn, tokens, now);
  l2p_[lpn] = new_lin;
  // Small writes that merged into a full page pay exactly their own bytes.
  stats_.small_service_flash_bytes += small_sectors * geo_.subpage_bytes();
  return done;
}

SimTime SubFtl::write_small_sector(const BufferedSector& bs, SimTime now) {
  SectorRecord& rec = sectors_[bs.sector];
  if (rec.in_region()) {
    // Re-update of a region-resident sector: the old subpage goes stale and
    // the sector is proven hot. The entry leaves the map until the pool
    // re-places it (or the overflow fallback below demotes it).
    drop_subpage_copy(bs.sector);
    rec.set_hot(true);
  }
  if (const auto placed = pool_sub_.try_write_sector(bs.sector, bs.token,
                                                     now)) {
    if (bs.small) stats_.small_service_flash_bytes += geo_.subpage_bytes();
    return placed->second;
  }
  // Overflow valve: the region cannot take another subpage right now
  // (extreme space pressure). Service the write the CGM way instead of
  // failing -- correctness first, the request WAF of this write is 4.
  rec.set_hot(false);
  const SimTime done = rmw_into_fullpage(bs.sector, bs.token, now);
  if (bs.small) stats_.small_service_flash_bytes += geo_.page_bytes;
  return done;
}

SimTime SubFtl::flush_run(std::span<const BufferedSector> run,
                          SimTime now) {
  // Data placement (Sec. 4.1): a COMPLETE logical page inside the flush
  // group goes to the full-page region; incomplete pages are small writes
  // for the subpage region. (`run` is sorted; split at page boundaries.)
  const std::uint32_t subs = geo_.subpages_per_page;
  SimTime done = now;
  std::size_t i = 0;
  while (i < run.size()) {
    const std::uint64_t lpn = run[i].sector / subs;
    std::size_t j = i;
    while (j < run.size() && run[j].sector / subs == lpn) ++j;
    if (j - i == subs) {
      done = std::max(done, write_full_lpn(lpn, &run[i], now));
    } else {
      for (std::size_t k = i; k < j; ++k)
        done = std::max(done, write_small_sector(run[k], now));
    }
    i = j;
  }
  return done;
}

SimTime SubFtl::rmw_into_fullpage(std::uint64_t sector, std::uint64_t token,
                                  SimTime now) {
  const std::uint32_t subs = geo_.subpages_per_page;
  const std::uint64_t lpn = sector / subs;
  // The overflow valve services a small write the CGM way; the whole
  // read + merge + full-page program attributes to RMW.
  const telemetry::CauseScope cause(sink_, telemetry::Cause::kRmw, lpn, now);
  std::array<std::uint64_t, nand::kMaxSubpagesPerPage> buf{};
  const std::span<std::uint64_t> tokens(buf.data(), subs);
  SimTime t = now;
  const bool merges_old_page = l2p_[lpn] != nand::kUnmapped;
  if (merges_old_page) {
    const auto read = dev_.read_page(codec_.decode_page(l2p_[lpn]), t);
    ++stats_.flash_reads;
    ++stats_.rmw_ops;
    for (std::uint32_t s = 0; s < subs; ++s) {
      tokens[s] = read.token[s];
      if (read.status[s] == nand::ReadStatus::kCorrupted ||
          read.status[s] == nand::ReadStatus::kUncorrectable)
        ++stats_.read_failures;
    }
    t = read.done;
    pool_full_.invalidate(l2p_[lpn]);
    l2p_[lpn] = nand::kUnmapped;
  }
  tokens[sector % subs] = token;
  const auto [new_lin, done] = pool_full_.write_page(lpn, tokens, t);
  l2p_[lpn] = new_lin;
  if (sink_ && merges_old_page && sink_->wants_op(telemetry::OpKind::kRmw))
    sink_->record_op({telemetry::OpKind::kRmw, now, done, 1});
  return done;
}

SimTime SubFtl::evict_batch(std::span<const SectorWrite> batch, SimTime now,
                            bool /*retention*/) {
  // The pool has already dropped its bookkeeping for these subpages;
  // forget the hash entries, then merge the sectors into their logical
  // pages in the full-page region -- ONE read-modify-write per logical
  // page, however many of its sectors the batch carries (sequential small
  // writes evict together, so this merge matters).
  std::vector<SectorWrite>& sorted = evict_sorted_;
  sorted.assign(batch.begin(), batch.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const SectorWrite& a, const SectorWrite& b) {
              return a.sector < b.sector;
            });
  const std::uint32_t subs = geo_.subpages_per_page;
  // Gather before use (util/prefetch.h): every line the merge loop below
  // touches is a likely DRAM miss at prod geometry, and each level depends
  // on the one before. Hint the batch's sector records and L2P entries,
  // then the old full pages' device slots (addressed directly) and pool
  // block metadata, then their reverse-map entries -- so each level's
  // misses overlap across the batch instead of serializing per logical
  // page.
  for (const SectorWrite& sw : sorted) {
    util::prefetch(&sectors_[sw.sector]);
    util::prefetch(&l2p_[sw.sector / subs]);
  }
  evict_old_pages_.clear();
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    const std::uint64_t lpn = sorted[k].sector / subs;
    if (k > 0 && sorted[k - 1].sector / subs == lpn) continue;
    if (l2p_[lpn] == nand::kUnmapped) continue;
    pool_full_.prefetch_target(l2p_[lpn]);
    evict_old_pages_.push_back(l2p_[lpn]);
  }
  for (const std::uint64_t old : evict_old_pages_)
    pool_full_.prefetch_page_meta(old);
  SimTime done = now;
  std::size_t i = 0;
  std::array<std::uint64_t, nand::kMaxSubpagesPerPage> buf;
  const std::span<std::uint64_t> tokens(buf.data(), subs);
  while (i < sorted.size()) {
    const std::uint64_t lpn = sorted[i].sector / subs;
    std::size_t j = i;
    while (j < sorted.size() && sorted[j].sector / subs == lpn) ++j;

    std::fill(tokens.begin(), tokens.end(), 0);
    SimTime t = now;
    const bool merges_old_page = l2p_[lpn] != nand::kUnmapped;
    if (merges_old_page) {
      const auto read = dev_.read_page(codec_.decode_page(l2p_[lpn]), t);
      ++stats_.flash_reads;
      ++stats_.rmw_ops;
      for (std::uint32_t s = 0; s < subs; ++s) {
        tokens[s] = read.token[s];
        if (read.status[s] == nand::ReadStatus::kCorrupted ||
            read.status[s] == nand::ReadStatus::kUncorrectable)
          ++stats_.read_failures;
      }
      t = read.done;
      pool_full_.invalidate(l2p_[lpn]);
      l2p_[lpn] = nand::kUnmapped;
    }
    for (std::size_t k = i; k < j; ++k) {
      const std::uint64_t es = sorted[k].sector;
      SectorRecord& rec = sectors_[es];
      if (rec.in_region()) --sub_entries_;
      rec.sub_lin = SectorRecord::kNotInRegion;
      rec.set_hot(false);
      tokens[es % subs] = sorted[k].token;
    }
    const auto [new_lin, page_done] = pool_full_.write_page(lpn, tokens, t);
    l2p_[lpn] = new_lin;
    stats_.small_extra_flash_bytes += geo_.page_bytes;
    if (sink_ && merges_old_page && sink_->wants_op(telemetry::OpKind::kRmw))
      sink_->record_op({telemetry::OpKind::kRmw, now, page_done,
                        static_cast<std::uint64_t>(j - i)});
    done = std::max(done, page_done);
    i = j;
  }
  return done;
}

IoResult SubFtl::write(std::uint64_t sector, std::uint32_t count, bool sync,
                       SimTime now) {
  check_range(sector, count);
  // Block-type conversion back to the shared pool: when free blocks run
  // low, garbage-only subpage-region blocks are returned so they can serve
  // the full-page region (their type is re-decided at next program).
  if (allocator_.total_free() <=
      config_.gc_reserve_blocks + geo_.total_chips())
    now = pool_sub_.release_idle_blocks(now);
  if (config_.wl_check_interval > 0 &&
      ++writes_since_wl_ >= config_.wl_check_interval) {
    writes_since_wl_ = 0;
    wl_toggle_ = !wl_toggle_;
    now = wl_toggle_
              ? pool_full_.static_wear_level(now, config_.wl_pe_threshold)
              : pool_sub_.static_wear_level(now, config_.wl_pe_threshold);
  }
  ++stats_.host_write_requests;
  stats_.host_write_sectors += count;
  const bool small = count < geo_.subpages_per_page;
  if (small) {
    ++stats_.small_write_requests;
    stats_.small_write_bytes +=
        static_cast<std::uint64_t>(count) * geo_.subpage_bytes();
  }

  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t s = sector + i;
    if (buffer_.insert(s, make_token(s, sectors_[s].next_version()), small))
      ++stats_.buffer_hits;
  }

  SimTime done = now + config_.buffer_insert_us;
  if (sync) {
    buffer_.extract_page_group(sector, geo_.subpages_per_page, extracted_);
    done = std::max(done, flush_run(extracted_, now));
  }
  while (buffer_.over_capacity()) {
    buffer_.extract_oldest_page_group(geo_.subpages_per_page, extracted_);
    if (extracted_.empty()) break;
    done = std::max(done, flush_run(extracted_, now));
  }
  return IoResult{done, true};
}

void SubFtl::prefetch(std::uint64_t sector, std::uint32_t count,
                      PrefetchStage stage) const {
  if (count == 0 || sector >= config_.logical_sectors) return;
  const std::uint64_t last =
      sector + std::min<std::uint64_t>(count, config_.logical_sectors - sector) -
      1;
  const std::uint32_t subs = geo_.subpages_per_page;
  if (stage == PrefetchStage::kMap) {
    util::prefetch_range(&sectors_[sector], &sectors_[last]);
    util::prefetch_range(&l2p_[sector / subs], &l2p_[last / subs]);
    return;
  }
  for (std::uint64_t lpn = sector / subs; lpn <= last / subs; ++lpn)
    if (l2p_[lpn] != nand::kUnmapped) pool_full_.prefetch_target(l2p_[lpn]);
}

IoResult SubFtl::read(std::uint64_t sector, std::uint32_t count, SimTime now,
                      std::vector<std::uint64_t>* tokens) {
  check_range(sector, count);
  ++stats_.host_read_requests;
  stats_.host_read_sectors += count;
  if (tokens) tokens->assign(count, 0);

  SimTime done = now;
  bool ok = true;
  // Resolve per sector: write buffer -> subpage hash -> coarse L2P. Full
  // pages are read at most once per logical page per request.
  std::uint32_t i = 0;
  while (i < count) {
    const std::uint64_t s = sector + i;
    std::uint64_t token = 0;
    if (buffer_.lookup(s, &token)) {
      ++stats_.buffer_hits;
      if (tokens) (*tokens)[i] = token;
      ++i;
      continue;
    }
    if (const SectorRecord& rec = sectors_[s]; rec.in_region()) {
      const auto ack =
          dev_.read_subpage(codec_.decode_subpage(rec.sub_lin), now);
      ++stats_.flash_reads;
      if (ack.status != nand::ReadStatus::kOk) {
        ok = false;
        ++stats_.read_failures;
      }
      if (tokens) (*tokens)[i] = ack.token;
      done = std::max(done, ack.done);
      ++i;
      continue;
    }
    // Fall back to the full-page region: serve every remaining sector of
    // this logical page (that is not shadowed) from one page read.
    const std::uint32_t subs = geo_.subpages_per_page;
    const std::uint64_t lpn = s / subs;
    if (l2p_[lpn] == nand::kUnmapped) {
      ++i;  // never written: token stays 0
      continue;
    }
    const auto read = dev_.read_page(codec_.decode_page(l2p_[lpn]), now);
    ++stats_.flash_reads;
    done = std::max(done, read.done);
    while (i < count) {
      const std::uint64_t cur = sector + i;
      if (cur / subs != lpn) break;
      if (buffer_.lookup(cur, &token)) {
        ++stats_.buffer_hits;
        if (tokens) (*tokens)[i] = token;
      } else if (const SectorRecord& rec = sectors_[cur]; rec.in_region()) {
        const auto ack =
            dev_.read_subpage(codec_.decode_subpage(rec.sub_lin), now);
        ++stats_.flash_reads;
        if (ack.status != nand::ReadStatus::kOk) {
          ok = false;
          ++stats_.read_failures;
        }
        if (tokens) (*tokens)[i] = ack.token;
        done = std::max(done, ack.done);
      } else {
        const auto slot = static_cast<std::uint32_t>(cur % subs);
        if (read.status[slot] == nand::ReadStatus::kCorrupted ||
            read.status[slot] == nand::ReadStatus::kUncorrectable) {
          ok = false;
          ++stats_.read_failures;
        }
        if (tokens) (*tokens)[i] = read.token[slot];
      }
      ++i;
    }
  }
  return IoResult{done, ok};
}

IoResult SubFtl::flush(SimTime now) {
  // Explicit host flush: every program the drain issues (and any GC it
  // triggers) attributes to the flush, not to the host write path.
  const telemetry::CauseScope cause(sink_, telemetry::Cause::kFlush,
                                    buffer_.size(), now);
  SimTime done = now;
  while (!buffer_.empty()) {
    buffer_.extract_oldest_page_group(geo_.subpages_per_page, extracted_);
    if (extracted_.empty()) break;
    done = std::max(done, flush_run(extracted_, now));
  }
  return IoResult{done, true};
}

void SubFtl::trim(std::uint64_t sector, std::uint32_t count) {
  check_range(sector, count);
  // Page-aligned contract (see Ftl::trim): only whole logical pages are
  // discarded. Partial edges keep their latest data -- crucially including
  // write-buffer entries, which may hold the ONLY copy of a sector's
  // newest version; dropping those would resurrect the stale flash copy.
  const std::uint32_t subs = geo_.subpages_per_page;
  const std::uint64_t first_lpn = (sector + subs - 1) / subs;
  const std::uint64_t end_lpn = (sector + count) / subs;
  for (std::uint64_t lpn = first_lpn; lpn < end_lpn; ++lpn) {
    for (std::uint32_t s = 0; s < subs; ++s) {
      buffer_.erase(lpn * subs + s);
      drop_subpage_copy(lpn * subs + s);
    }
    if (l2p_[lpn] != nand::kUnmapped) {
      pool_full_.invalidate(l2p_[lpn]);
      l2p_[lpn] = nand::kUnmapped;
    }
  }
}

SimTime SubFtl::tick(SimTime now) {
  if (now - last_retention_scan_ < config_.retention_scan_interval)
    return now;
  last_retention_scan_ = now;
  return pool_sub_.retention_scan(now);
}

std::uint64_t SubFtl::mapping_memory_bytes() const {
  // Coarse table: 32-bit PPA per logical page. Hash table: modeled 16 bytes
  // per entry (sector key + sub-PPA + flags); bounded by one valid subpage
  // per physical page of the subpage region.
  return l2p_.size() * sizeof(std::uint32_t) + sub_entries_ * 16;
}

void SubFtl::set_telemetry(telemetry::Sink* sink) {
  sink_ = sink;
  pool_full_.set_telemetry(sink);
  pool_sub_.set_telemetry(sink);
  if (!sink) return;
  telemetry::MetricsRegistry& reg = sink->registry();
  bind_stats(reg, name(), stats_);
  reg.gauge(name() + "/region_blocks").set_provider([this] {
    return static_cast<double>(pool_sub_.blocks_in_use());
  });
  reg.gauge(name() + "/region_valid_sectors").set_provider([this] {
    return static_cast<double>(pool_sub_.valid_sectors());
  });
  reg.gauge(name() + "/fullpage_blocks").set_provider([this] {
    return static_cast<double>(pool_full_.blocks_in_use());
  });
  reg.gauge(name() + "/mapping_memory_bytes").set_provider([this] {
    return static_cast<double>(mapping_memory_bytes());
  });
}

void SubFtl::save_state(util::StateWriter& w) const {
  w.tag("SUBF");
  save_stats(w, stats_);
  allocator_.save_state(w);
  pool_full_.save_state(w);
  pool_sub_.save_state(w);
  buffer_.save_state(w);
  w.pod_vec(l2p_);
  // Archived shape: the former sub_lin (u64, kUnmapped = not in region),
  // hot-bit and version arrays, unpacked from the records.
  w.pod_vec_of<std::uint64_t>(sectors_.size(), [this](std::size_t i) {
    const SectorRecord& rec = sectors_[i];
    return rec.in_region() ? std::uint64_t{rec.sub_lin} : nand::kUnmapped;
  });
  w.pod_vec_of<std::uint8_t>(sectors_.size(), [this](std::size_t i) {
    return sectors_[i].hot();
  });
  w.u64(sub_entries_);
  w.pod_vec_of<std::uint32_t>(sectors_.size(), [this](std::size_t i) {
    return sectors_[i].version();
  });
  w.f64(last_retention_scan_);
  w.u32(writes_since_wl_);
  w.b(wl_toggle_);
}

void SubFtl::load_state(util::StateReader& r) {
  r.tag("SUBF");
  load_stats(r, stats_);
  allocator_.load_state(r);
  pool_full_.load_state(r);
  pool_sub_.load_state(r);
  buffer_.load_state(r);
  r.pod_vec(l2p_);
  r.pod_vec_into<std::uint64_t>(
      sectors_.size(), [this](std::size_t i, std::uint64_t lin) {
        if (lin != nand::kUnmapped && lin >= SectorRecord::kNotInRegion)
          throw std::runtime_error(
              "SubFtl::load_state: subpage address does not fit the record");
        sectors_[i].sub_lin = lin == nand::kUnmapped
                                  ? SectorRecord::kNotInRegion
                                  : static_cast<std::uint32_t>(lin);
      });
  r.pod_vec_into<std::uint8_t>(
      sectors_.size(), [this](std::size_t i, std::uint8_t hot) {
        sectors_[i].version_hot = hot ? SectorRecord::kHotBit : 0;
      });
  sub_entries_ = r.u64();
  r.pod_vec_into<std::uint32_t>(
      sectors_.size(), [this](std::size_t i, std::uint32_t version) {
        if (version > SectorRecord::kVersionMask)
          throw std::runtime_error(
              "SubFtl::load_state: sector version " +
              std::to_string(version) + " does not fit 31 bits");
        sectors_[i].version_hot |= version;
      });
  last_retention_scan_ = r.f64();
  writes_since_wl_ = r.u32();
  wl_toggle_ = r.b();
}

}  // namespace esp::ftl
