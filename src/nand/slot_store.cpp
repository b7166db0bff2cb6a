#include "nand/slot_store.h"

#include <algorithm>
#include <bit>
#include <new>
#include <stdexcept>
#include <string>

#include <sys/mman.h>

namespace esp::nand {

void SlotStore::ArenaFree::operator()(SlotRecord* p) const noexcept {
  munmap(p, bytes);
}

SlotStore::SlotStore(std::size_t blocks, std::uint32_t pages_per_block,
                     std::uint32_t subpages_per_page)
    : pages_(pages_per_block), subs_(subpages_per_page) {
  if (pages_ == 0 || subs_ == 0 || subs_ > kMaxSubpagesPerPage)
    throw std::invalid_argument("Block: bad page/subpage counts");
  header_.resize(blocks);
  code_.resize(blocks * pages_);
  // The arena is a fresh anonymous mapping: page-aligned and zero by
  // construction. Its pages are faulted in here, 2 MiB at a time, so
  // first-touch faults land in construction and not in the first
  // commands; that costs about half of faulting them in one by one with
  // memset, and a device is rebuilt for every experiment cell
  // (docs/PERFORMANCE.md, "Device slot store"). Where the advice is
  // missing or refused, the pages fault in on first use.
  const std::size_t bytes = std::max<std::size_t>(
      blocks * pages_ * subs_ * sizeof(SlotRecord), 1);  // mmap needs > 0
  void* arena = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (arena == MAP_FAILED) throw std::bad_alloc();
#ifdef MADV_POPULATE_WRITE
  constexpr std::size_t kChunk = std::size_t{2} << 20;
  for (std::size_t off = 0; off < bytes; off += kChunk)
    madvise(static_cast<char*>(arena) + off, std::min(kChunk, bytes - off),
            MADV_POPULATE_WRITE);
#endif
  slots_ = {static_cast<SlotRecord*>(arena), ArenaFree{bytes}};
}

void SlotStore::check_page(std::uint32_t page) const {
  if (page >= pages_)
    throw std::out_of_range("Block: page " + std::to_string(page) +
                            " out of range");
}

void SlotStore::erase(std::size_t blk) {
  BlockHeader& h = header_[blk];
  ++h.pe_cycles;
  h.programmed_pages = 0;
  h.first_program_us = -1.0;
  std::fill_n(&code_[page_index(blk, 0)], pages_, std::uint8_t{0});
}

void SlotStore::program_full(std::size_t blk, std::uint32_t page,
                             std::span<const std::uint64_t> tokens,
                             SimTime now) {
  check_page(page);
  if (tokens.size() != subs_)
    throw std::logic_error("Block::program_full: token count != subpages");
  std::uint8_t& code = code_[page_index(blk, page)];
  if (code != 0)
    throw std::logic_error(
        "Block::program_full: page already programmed this erase cycle");
  code = static_cast<std::uint8_t>(PageState::kFullBit | subs_);
  note_first_program(blk, now);
  SlotRecord* rec = &slots_[page_index(blk, page) * subs_];
  for (std::uint32_t s = 0; s < subs_; ++s) rec[s] = {tokens[s], now};
}

void SlotStore::program_subpage(std::size_t blk, std::uint32_t page,
                                std::uint32_t slot, std::uint64_t token,
                                SimTime now) {
  check_page(page);
  if (slot >= subs_)
    throw std::out_of_range("Block::program_subpage: slot out of range");
  std::uint8_t& code = code_[page_index(blk, page)];
  const PageState ps{code};
  if (ps.full())
    throw std::logic_error(
        "Block::program_subpage: page holds a full-page program");
  if (slot != ps.count())
    throw std::logic_error(
        "Block::program_subpage: slots must be programmed sequentially "
        "(next=" + std::to_string(ps.count()) +
        ", got=" + std::to_string(slot) + ")");
  // Raising the count is the whole of the physics of Fig. 4: the earlier
  // slots of this word line now read as destroyed, the new one as an
  // Npp^slot subpage (PageState).
  if (slot == 0) note_first_program(blk, now);
  ++code;
  slots_[page_index(blk, page) * subs_ + slot] = {token, now};
}

SlotView SlotStore::slot(std::size_t blk, std::uint32_t page,
                         std::uint32_t slot) const {
  check_page(page);
  if (slot >= subs_) throw std::out_of_range("Block::slot: slot out of range");
  const PageState ps{code_[page_index(blk, page)]};
  if (!ps.programmed(slot)) return SlotView{};
  const SlotRecord& rec = records(blk, page)[slot];
  return SlotView{ps.state(slot), rec.token, rec.written_at, ps.npp(slot)};
}

void SlotStore::save_block(std::size_t blk, util::StateWriter& w) const {
  const BlockHeader& h = header_[blk];
  w.tag("BLK0");
  w.u32(pages_);
  w.u32(subs_);
  w.u32(h.pe_cycles);
  w.u32(h.programmed_pages);
  w.f64(h.first_program_us);
  const std::uint8_t* code = &code_[page_index(blk, 0)];
  const SlotRecord* rec = records(blk, 0);
  const std::size_t slots = static_cast<std::size_t>(pages_) * subs_;
  const auto page_of = [&](std::size_t i) {
    return PageState{code[i / subs_]};
  };
  const auto live = [&](std::size_t i) {
    return page_of(i).programmed(static_cast<std::uint32_t>(i % subs_));
  };
  w.pod_vec_of<PageMode>(
      pages_, [&](std::size_t p) { return PageState{code[p]}.mode(); });
  w.pod_vec_of<std::uint8_t>(pages_, [&](std::size_t p) {
    return static_cast<std::uint8_t>(PageState{code[p]}.count());
  });
  w.pod_vec_of<SlotState>(slots, [&](std::size_t i) {
    return page_of(i).state(static_cast<std::uint32_t>(i % subs_));
  });
  w.pod_vec_of<std::uint8_t>(slots, [&](std::size_t i) {
    return page_of(i).npp(static_cast<std::uint32_t>(i % subs_));
  });
  w.pod_vec_of<std::uint64_t>(
      slots, [&](std::size_t i) { return live(i) ? rec[i].token : 0; });
  w.pod_vec_of<SimTime>(
      slots, [&](std::size_t i) { return live(i) ? rec[i].written_at : 0.0; });
}

void SlotStore::load_block(std::size_t blk, util::StateReader& r) {
  r.tag("BLK0");
  const std::uint32_t pages = r.u32();
  const std::uint32_t subs = r.u32();
  if (pages != pages_ || subs != subs_)
    throw std::runtime_error("SlotStore::load_block: geometry mismatch");
  BlockHeader& h = header_[blk];
  h.pe_cycles = r.u32();
  h.programmed_pages = r.u32();
  h.first_program_us = r.f64();
  const auto fail = [](const char* what) {
    throw std::runtime_error(std::string("SlotStore::load_block: ") + what);
  };
  std::uint8_t* code = &code_[page_index(blk, 0)];
  SlotRecord* rec = &slots_[page_index(blk, 0) * subs_];
  const auto page_of = [&](std::size_t i) {
    return PageState{code[i / subs_]};
  };
  const auto slot_of = [&](std::size_t i) {
    return static_cast<std::uint32_t>(i % subs_);
  };
  // The archived mode and program count must be a state the program rules
  // can reach: erased with no program, a full page counting every slot, or
  // an ESP page with 1..subs programs.
  std::vector<PageMode> modes(pages_);
  r.pod_vec_into<PageMode>(pages_, [&](std::size_t p, PageMode m) {
    if (m != PageMode::kErased && m != PageMode::kFull && m != PageMode::kEsp)
      fail("unknown page mode");
    modes[p] = m;
  });
  std::uint32_t programmed_pages = 0;
  r.pod_vec_into<std::uint8_t>(pages_, [&](std::size_t p, std::uint8_t n) {
    if (n > subs_) fail("programmed count above subpages_per_page");
    const bool ok = modes[p] == PageMode::kErased ? n == 0
                    : modes[p] == PageMode::kFull ? n == subs_
                                                  : n >= 1;
    if (!ok) fail("page mode and programmed count disagree");
    code[p] = static_cast<std::uint8_t>(
        modes[p] == PageMode::kFull ? PageState::kFullBit | n : n);
    if (n != 0) ++programmed_pages;
  });
  if (programmed_pages != h.programmed_pages)
    fail("programmed page count disagrees with the page modes");
  const std::size_t slots = static_cast<std::size_t>(pages_) * subs_;
  r.pod_vec_into<SlotState>(slots, [&](std::size_t i, SlotState s) {
    if (s != page_of(i).state(slot_of(i)))
      fail("slot state disagrees with its page's program count");
  });
  r.pod_vec_into<std::uint8_t>(slots, [&](std::size_t i, std::uint8_t npp) {
    if (npp != page_of(i).npp(slot_of(i)))
      fail("npp disagrees with its slot");
  });
  r.pod_vec_into<std::uint64_t>(slots, [&](std::size_t i, std::uint64_t t) {
    if (t != 0 && !page_of(i).programmed(slot_of(i)))
      fail("unprogrammed slot holds a token");
    rec[i].token = t;
  });
  r.pod_vec_into<SimTime>(slots, [&](std::size_t i, SimTime at) {
    if (std::bit_cast<std::uint64_t>(at) != 0 &&
        !page_of(i).programmed(slot_of(i)))
      fail("unprogrammed slot holds a program time");
    rec[i].written_at = at;
  });
}

}  // namespace esp::nand
