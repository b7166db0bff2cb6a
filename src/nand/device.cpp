#include "nand/device.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "telemetry/metrics.h"

namespace esp::nand {

namespace {

const Geometry& validated(const Geometry& geo) {
  geo.validate();
  return geo;
}

}  // namespace

NandDevice::NandDevice(const Geometry& geo, const TimingSpec& timing,
                       const RetentionModel& retention)
    : geo_(validated(geo)),
      timing_(timing),
      retention_(retention),
      slots_(geo_.total_blocks(), geo_.pages_per_block,
             geo_.subpages_per_page),
      channel_busy_until_(geo.channels, 0.0),
      chip_busy_until_(geo.total_chips(), 0.0),
      chip_busy_accum_(geo.total_chips(), 0.0),
      channel_busy_accum_(geo.channels, 0.0) {}

void NandDevice::throw_bad_block() {
  throw std::out_of_range("NandDevice: chip/block out of range");
}

SimTime NandDevice::schedule(std::uint32_t chip, SimTime array_us,
                             std::uint64_t xfer_bytes, bool transfer_first,
                             SimTime now) {
  const std::uint32_t ch = geo_.channel_of_chip(chip);
  const SimTime xfer = xfer_bytes ? timing_.transfer_us(xfer_bytes)
                                  : timing_.cmd_overhead_us;
  const SimTime start =
      std::max({now, channel_busy_until_[ch], chip_busy_until_[chip]});
  SimTime done;
  if (transfer_first) {
    // Write path: data moves over the channel, then the array programs.
    channel_busy_until_[ch] = start + xfer;
    done = start + xfer + array_us;
  } else {
    // Read path: array senses first, then data moves over the channel.
    channel_busy_until_[ch] = start + array_us + xfer;
    done = start + array_us + xfer;
  }
  chip_busy_until_[chip] = done;
  chip_busy_accum_[chip] += done - start;
  channel_busy_accum_[ch] += xfer;
  return done;
}

OpAck NandDevice::program_full(const PageAddr& addr,
                               std::span<const std::uint64_t> tokens,
                               SimTime now) {
  slots_.program_full(block_index(addr.chip, addr.block), addr.page, tokens,
                      now);
  ++counters_.progs_full;
  OpAck ack{schedule(addr.chip, timing_.prog_full_us, geo_.page_bytes,
                     /*transfer_first=*/true, now)};
  if (sink_)
    sink_->record_op({telemetry::OpKind::kProgFull, now, ack.done, addr.page,
                      0, addr.chip, addr.block});
  return ack;
}

OpAck NandDevice::program_subpage(const SubpageAddr& addr, std::uint64_t token,
                                  SimTime now) {
  slots_.program_subpage(block_index(addr.page.chip, addr.page.block),
                         addr.page.page, addr.slot, token, now);
  ++counters_.progs_sub;
  OpAck ack{schedule(addr.page.chip, timing_.prog_sub_us,
                     geo_.subpage_bytes(), /*transfer_first=*/true, now)};
  if (sink_)
    sink_->record_op({telemetry::OpKind::kProgSub, now, ack.done, addr.slot,
                      addr.page.page, addr.page.chip, addr.page.block});
  return ack;
}

SimTime NandDevice::stored_horizon(PageState ps, std::uint32_t pe) const {
  if (reliability_mode_ != ReliabilityMode::kDeterministic || ps.count() == 0)
    return 0.0;
  return ps.full() ? retention_.fullpage_horizon(pe)
                   : retention_.subpage_horizon(ps.npp(ps.count() - 1), pe);
}

ReadStatus NandDevice::verdict(PageState ps, std::uint32_t slot,
                               SimTime written_at, std::uint32_t pe,
                               SimTime horizon, SimTime now) {
  switch (ps.state(slot)) {
    case SlotState::kEmpty:
      return ReadStatus::kEmpty;
    case SlotState::kCorrupted:
      ++counters_.corrupted_reads;
      return ReadStatus::kCorrupted;
    case SlotState::kStored:
      break;
  }
  const SimTime age = now - written_at;
  if (reliability_mode_ == ReliabilityMode::kDeterministic) {
    if (age > horizon) {
      ++counters_.uncorrectable_reads;
      return ReadStatus::kUncorrectable;
    }
  } else {
    // Probabilistic: map the normalized model BER to a raw BER such that
    // the normalized ECC limit coincides with the code's capability, then
    // draw each of the subpage's codewords from the binomial tail.
    const double months = age / sim_time::kMonth;
    const double norm_ber =
        ps.full() ? retention_.fullpage_ber(months, pe)
                  : retention_.subpage_ber(ps.npp(slot), months, pe);
    const double raw_ber = norm_ber * ecc_.spec().max_raw_ber() /
                           retention_.params().ecc_limit;
    const double p_codeword = ecc_.uncorrectable_probability(raw_ber);
    const auto codewords = ecc_.codewords_for(geo_.subpage_bytes());
    double p_ok = 1.0;
    for (std::uint32_t i = 0; i < codewords; ++i) p_ok *= 1.0 - p_codeword;
    if (fault_rng_.chance(1.0 - p_ok)) {
      ++counters_.uncorrectable_reads;
      return ReadStatus::kUncorrectable;
    }
  }
  if (fault_prob_ > 0.0 && fault_rng_.chance(fault_prob_)) {
    ++counters_.uncorrectable_reads;
    return ReadStatus::kUncorrectable;
  }
  return ReadStatus::kOk;
}

ReadAck NandDevice::read_subpage(const SubpageAddr& addr, SimTime now) {
  const std::size_t b = block_index(addr.page.chip, addr.page.block);
  const SlotView view = slots_.slot(b, addr.page.page, addr.slot);
  const PageState ps = slots_.page_state(b, addr.page.page);
  const std::uint32_t pe = slots_.pe_cycles(b);
  ReadAck ack;
  ack.status = verdict(ps, addr.slot, view.written_at, pe,
                       view.state == SlotState::kStored
                           ? stored_horizon(ps, pe)
                           : 0.0,
                       now);
  ack.token = view.token;
  ++counters_.reads_sub;
  ack.done = schedule(addr.page.chip, timing_.read_sub_us,
                      geo_.subpage_bytes(), /*transfer_first=*/false, now);
  if (sink_ && sink_->wants_op(telemetry::OpKind::kRead))
    sink_->record_op({telemetry::OpKind::kRead, now, ack.done, 1, 0,
                      addr.page.chip, addr.page.block});
  return ack;
}

PageReadAck NandDevice::read_page(const PageAddr& addr, SimTime now) {
  // One page read loads the block header, the page's state byte and its
  // slot records once; every slot's verdict derives from those.
  const std::size_t b = block_index(addr.chip, addr.block);
  const PageState ps = slots_.page_state(b, addr.page);
  const SlotRecord* rec = slots_.records(b, addr.page);
  const std::uint32_t pe = slots_.pe_cycles(b);
  const SimTime horizon = stored_horizon(ps, pe);
  PageReadAck ack;
  for (std::uint32_t s = 0; s < geo_.subpages_per_page; ++s) {
    const bool live = ps.programmed(s);
    ack.status[s] =
        verdict(ps, s, live ? rec[s].written_at : 0.0, pe, horizon, now);
    ack.token[s] = live ? rec[s].token : 0;
  }
  ++counters_.reads_full;
  ack.done = schedule(addr.chip, timing_.read_full_us, geo_.page_bytes,
                      /*transfer_first=*/false, now);
  if (sink_ && sink_->wants_op(telemetry::OpKind::kRead))
    sink_->record_op({telemetry::OpKind::kRead, now, ack.done,
                      geo_.subpages_per_page, 0, addr.chip, addr.block});
  return ack;
}

OpAck NandDevice::copyback(const PageAddr& src, const PageAddr& dst,
                           SimTime now) {
  if (src.chip != dst.chip)
    throw std::logic_error("NandDevice::copyback: pages must share a chip");
  const std::size_t src_blk = block_index(src.chip, src.block);
  std::array<std::uint64_t, kMaxSubpagesPerPage> buf;
  const std::span<std::uint64_t> tokens(buf.data(), geo_.subpages_per_page);
  for (std::uint32_t s = 0; s < geo_.subpages_per_page; ++s)
    tokens[s] = slots_.slot(src_blk, src.page, s).token;
  slots_.program_full(block_index(dst.chip, dst.block), dst.page, tokens, now);
  ++counters_.reads_full;
  ++counters_.progs_full;
  // Chip busy for sense + program; only command overhead on the channel.
  OpAck ack{schedule(src.chip, timing_.read_full_us + timing_.prog_full_us,
                     /*xfer_bytes=*/0, /*transfer_first=*/true, now)};
  if (sink_)
    sink_->record_op({telemetry::OpKind::kProgFull, now, ack.done, dst.page,
                      0, dst.chip, dst.block});
  return ack;
}

OpAck NandDevice::erase_block(std::uint32_t chip, std::uint32_t block,
                              SimTime now) {
  const std::size_t b = block_index(chip, block);
  slots_.erase(b);
  ++counters_.erases;
  const std::uint32_t pe = slots_.pe_cycles(b);
  max_pe_cycles_ = std::max(max_pe_cycles_, pe);
  OpAck ack{schedule(chip, timing_.erase_us, /*xfer_bytes=*/0,
                     /*transfer_first=*/true, now)};
  if (sink_)
    sink_->record_op({telemetry::OpKind::kErase, now, ack.done, pe, 0, chip,
                      block});
  return ack;
}

void NandDevice::set_telemetry(telemetry::Sink* sink) {
  sink_ = sink;
  if (!sink_) return;
  telemetry::MetricsRegistry& reg = sink_->registry();
  reg.bind_counter("nand/reads_full", &counters_.reads_full);
  reg.bind_counter("nand/reads_sub", &counters_.reads_sub);
  reg.bind_counter("nand/progs_full", &counters_.progs_full);
  reg.bind_counter("nand/progs_sub", &counters_.progs_sub);
  reg.bind_counter("nand/erases", &counters_.erases);
  reg.bind_counter("nand/uncorrectable_reads", &counters_.uncorrectable_reads);
  reg.bind_counter("nand/corrupted_reads", &counters_.corrupted_reads);
}

void NandDevice::fill_block_health(
    std::span<telemetry::BlockHealth> out) const {
  const std::size_t n = std::min(out.size(), slots_.blocks());
  for (std::size_t i = 0; i < n; ++i) {
    out[i].pe = slots_.pe_cycles(i);
    out[i].programmed_pages = slots_.programmed_pages(i);
    out[i].first_program_us = slots_.first_program_us(i);
  }
}

void NandDevice::apply_synthetic_wear(std::uint32_t chip, std::uint32_t block,
                                      std::uint32_t cycles) {
  if (cycles == 0) return;
  const std::size_t b = block_index(chip, block);
  slots_.add_wear(b, cycles);
  synthetic_erases_ += cycles;
  max_pe_cycles_ = std::max(max_pe_cycles_, slots_.pe_cycles(b));
}

void NandDevice::save_state(util::StateWriter& w) const {
  w.tag("NAND");
  w.u64(slots_.blocks());
  for (std::size_t b = 0; b < slots_.blocks(); ++b) slots_.save_block(b, w);
  w.pod_vec(channel_busy_until_);
  w.pod_vec(chip_busy_until_);
  w.pod_vec(chip_busy_accum_);
  w.pod_vec(channel_busy_accum_);
  w.u64(counters_.reads_full);
  w.u64(counters_.reads_sub);
  w.u64(counters_.progs_full);
  w.u64(counters_.progs_sub);
  w.u64(counters_.erases);
  w.u64(counters_.uncorrectable_reads);
  w.u64(counters_.corrupted_reads);
  w.u64(synthetic_erases_);
  w.u32(max_pe_cycles_);
  w.f64(fault_prob_);
  const util::Xoshiro256::State rs = fault_rng_.state();
  w.raw(&rs, sizeof rs);
  w.u8(static_cast<std::uint8_t>(reliability_mode_));
}

void NandDevice::load_state(util::StateReader& r) {
  r.tag("NAND");
  if (r.u64() != slots_.blocks())
    throw std::runtime_error("NandDevice::load_state: geometry mismatch");
  for (std::size_t b = 0; b < slots_.blocks(); ++b) slots_.load_block(b, r);
  r.pod_vec(channel_busy_until_);
  r.pod_vec(chip_busy_until_);
  r.pod_vec(chip_busy_accum_);
  r.pod_vec(channel_busy_accum_);
  if (channel_busy_until_.size() != geo_.channels ||
      chip_busy_until_.size() != geo_.total_chips() ||
      chip_busy_accum_.size() != geo_.total_chips() ||
      channel_busy_accum_.size() != geo_.channels)
    throw std::runtime_error("NandDevice::load_state: corrupt busy clocks");
  counters_.reads_full = r.u64();
  counters_.reads_sub = r.u64();
  counters_.progs_full = r.u64();
  counters_.progs_sub = r.u64();
  counters_.erases = r.u64();
  counters_.uncorrectable_reads = r.u64();
  counters_.corrupted_reads = r.u64();
  synthetic_erases_ = r.u64();
  max_pe_cycles_ = r.u32();
  fault_prob_ = r.f64();
  util::Xoshiro256::State rs;
  r.raw(&rs, sizeof rs);
  fault_rng_.set_state(rs);
  reliability_mode_ = static_cast<ReliabilityMode>(r.u8());
}

void NandDevice::set_read_fault_injection(double probability,
                                          std::uint64_t seed) {
  fault_prob_ = std::clamp(probability, 0.0, 1.0);
  fault_rng_ = util::Xoshiro256(seed);
}

void NandDevice::set_reliability_mode(ReliabilityMode mode,
                                      std::uint64_t seed) {
  reliability_mode_ = mode;
  fault_rng_ = util::Xoshiro256(seed);
}

}  // namespace esp::nand
