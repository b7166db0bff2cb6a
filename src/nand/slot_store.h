// Device-wide NAND slot store enforcing ESP programming semantics.
//
// This is the layer where the physics of Sec. 3 lives:
//   * a page (word line) is programmed either as one full page or as a
//     strictly sequential series of subpage programs (ESP mode);
//   * each subpage slot can be programmed exactly ONCE per erase cycle --
//     reprogramming destroys data, so the device refuses it;
//   * programming slot j DESTROYS the data stored in every previously
//     programmed slot of the same word line (cell-to-cell coupling and
//     program disturbance, Fig. 4) -- the device silently corrupts, exactly
//     as silicon would; keeping valid data out of harm's way is FTL policy;
//   * the slot written after k prior program operations is an Npp^k-type
//     subpage with correspondingly reduced retention.
//
// Because slots are programmed strictly in order, a slot's state and its
// Npp type follow from its page's mode and program count alone, so the
// store keeps only those (one byte per page, `PageState`) and derives the
// rest:
//   * erased (count 0)          -> every slot kEmpty;
//   * full page                 -> every slot kStored, npp 0;
//   * ESP page with count n     -> slots below n-1 kCorrupted, slot n-1
//                                  kStored, later slots kEmpty; slot s < n
//                                  is an Npp^s subpage.
//
// Layout, all reached by address arithmetic from (block, page):
//   * a 16-byte header per block (P/E count, programmed pages, first
//     program time);
//   * one `PageState` byte per page;
//   * one `SlotRecord` {token, written_at} per slot, a page's records
//     contiguous in a 64-byte-aligned arena, so at 4 subpages a page is
//     exactly one cache line.
// A record is meaningful only below its page's program count: erase clears
// the page bytes, not the records, and every accessor reads an
// unprogrammed slot as token 0, written_at 0.
//
// Illegal *command sequences* (out-of-order slot, programming a full page
// over a partially written one) throw std::logic_error: on silicon these
// are firmware bugs, and the tests rely on them failing loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nand/geometry.h"
#include "util/prefetch.h"
#include "util/serialize.h"
#include "util/sim_time.h"

namespace esp::nand {

enum class SlotState : std::uint8_t {
  kEmpty,      ///< erased, never programmed this cycle
  kStored,     ///< holds the token it was programmed with
  kCorrupted,  ///< destroyed by a later subpage program on the same WL
};

enum class PageMode : std::uint8_t {
  kErased,  ///< no program since last erase
  kFull,    ///< one conventional full-page program
  kEsp,     ///< one or more erase-free subpage programs
};

/// Snapshot of one subpage slot.
struct SlotView {
  SlotState state = SlotState::kEmpty;
  std::uint64_t token = 0;     ///< payload written by the FTL
  SimTime written_at = 0.0;    ///< simulated program time
  std::uint8_t npp = 0;        ///< Npp^k type: prior WL programs at write
};

/// One page's program history: the program count in the low bits, the
/// full-page flag in the top bit (a full page counts every slot). The
/// derivation rules of the header comment live here and nowhere else.
struct PageState {
  static constexpr std::uint8_t kFullBit = 0x80;
  static constexpr std::uint8_t kCountMask = 0x7F;
  static_assert(kMaxSubpagesPerPage <= kCountMask);

  std::uint8_t code = 0;

  bool full() const { return (code & kFullBit) != 0; }
  /// Program operations this erase cycle (= next ESP slot).
  std::uint32_t count() const { return code & kCountMask; }
  PageMode mode() const {
    return code == 0 ? PageMode::kErased
                     : full() ? PageMode::kFull : PageMode::kEsp;
  }
  /// True when `slot` was written this erase cycle (its record is live).
  bool programmed(std::uint32_t slot) const { return slot < count(); }
  SlotState state(std::uint32_t slot) const {
    if (full()) return SlotState::kStored;
    if (slot + 1 < count()) return SlotState::kCorrupted;
    return slot + 1 == count() ? SlotState::kStored : SlotState::kEmpty;
  }
  std::uint8_t npp(std::uint32_t slot) const {
    return !full() && programmed(slot) ? static_cast<std::uint8_t>(slot) : 0;
  }
};

/// Payload of one slot; live only while the slot is programmed.
struct SlotRecord {
  std::uint64_t token;
  SimTime written_at;
};

class SlotStore {
 public:
  /// `blocks` erase blocks of `pages_per_block` pages, each page split into
  /// `subpages_per_page` slots. The whole store is zeroed here.
  SlotStore(std::size_t blocks, std::uint32_t pages_per_block,
            std::uint32_t subpages_per_page);

  // ---- commands (block indices are the caller's to range-check) ---------
  /// Erases the whole block, incrementing its P/E count.
  void erase(std::size_t blk);

  /// Conventional full-page program; requires an erased page.
  /// tokens.size() must equal subpages_per_page (one token per subpage's
  /// worth of data).
  void program_full(std::size_t blk, std::uint32_t page,
                    std::span<const std::uint64_t> tokens, SimTime now);

  /// ESP subpage program. `slot` must be the page's next unprogrammed slot
  /// (sequential order is a NAND constraint: later word-line segments would
  /// otherwise be disturbed unpredictably). Destroys previously programmed
  /// slots of the page.
  void program_subpage(std::size_t blk, std::uint32_t page, std::uint32_t slot,
                       std::uint64_t token, SimTime now);

  /// Epoch fast-forward support: accrues `cycles` P/E cycles without an
  /// erase command, modeling wear accumulated during a compressed aging
  /// epoch. Page contents and program state are untouched -- the resident
  /// data stands in for the last rewrite of the epoch.
  void add_wear(std::size_t blk, std::uint32_t cycles) noexcept {
    header_[blk].pe_cycles += cycles;
  }

  // ---- state ---------------------------------------------------------------
  SlotView slot(std::size_t blk, std::uint32_t page, std::uint32_t slot) const;
  PageState page_state(std::size_t blk, std::uint32_t page) const {
    check_page(page);
    return PageState{code_[page_index(blk, page)]};
  }
  PageMode page_mode(std::size_t blk, std::uint32_t page) const {
    return page_state(blk, page).mode();
  }
  /// Number of program operations the page's word line has received this
  /// erase cycle (= next programmable slot index in ESP mode).
  std::uint32_t slots_programmed(std::size_t blk, std::uint32_t page) const {
    return page_state(blk, page).count();
  }
  /// The page's slot records (subpages_per_page of them); read one only
  /// where its PageState says it is programmed. `page` is not checked.
  const SlotRecord* records(std::size_t blk, std::uint32_t page) const {
    return &slots_[page_index(blk, page) * subs_];
  }

  std::uint32_t pe_cycles(std::size_t blk) const {
    return header_[blk].pe_cycles;
  }
  /// Pages with at least one program this erase cycle.
  std::uint32_t programmed_pages(std::size_t blk) const {
    return header_[blk].programmed_pages;
  }
  /// Simulated time of the first program since the last erase; negative
  /// when the block is erased. Retention age of the oldest data is
  /// `now - first_program_us()`.
  SimTime first_program_us(std::size_t blk) const {
    return header_[blk].first_program_us;
  }
  /// True when no page has been programmed since the last erase.
  bool is_erased(std::size_t blk) const {
    return header_[blk].programmed_pages == 0;
  }

  std::size_t blocks() const { return header_.size(); }

  /// Host-cache hint (util/prefetch.h): pulls the block header, the page's
  /// state byte and its slot records toward the CPU caches ahead of a read
  /// or program. No effect on store state; `blk` must be in range, an
  /// out-of-range page is ignored.
  void prefetch_page(std::size_t blk, std::uint32_t page) const {
    if (page >= pages_) return;
    const std::size_t p = page_index(blk, page);
    util::prefetch(&header_[blk]);
    util::prefetch(&code_[p]);
    util::prefetch(&slots_[p * subs_]);
    util::prefetch(&slots_[p * subs_ + subs_ - 1]);
  }

  /// Snapshot support: one block as a "BLK0" section of format v1 (the
  /// per-slot mode/programmed/state/npp/token/written_at arrays, generated
  /// from the store). Loading rejects an archived slot state, Npp type or
  /// unprogrammed-slot payload that disagrees with its page's mode and
  /// program count.
  void save_block(std::size_t blk, util::StateWriter& w) const;
  void load_block(std::size_t blk, util::StateReader& r);

 private:
  struct BlockHeader {
    std::uint32_t pe_cycles = 0;
    std::uint32_t programmed_pages = 0;  ///< pages programmed this cycle
    SimTime first_program_us = -1.0;     ///< since erase (<0: none)
  };
  struct ArenaFree {
    std::size_t bytes;
    void operator()(SlotRecord* p) const noexcept;
  };

  std::size_t page_index(std::size_t blk, std::uint32_t page) const {
    return blk * pages_ + page;
  }
  void check_page(std::uint32_t page) const;
  void note_first_program(std::size_t blk, SimTime now) {
    BlockHeader& h = header_[blk];
    if (h.programmed_pages++ == 0) h.first_program_us = now;
  }

  std::uint32_t pages_;
  std::uint32_t subs_;
  std::vector<BlockHeader> header_;  ///< [block]
  std::vector<std::uint8_t> code_;   ///< [block * pages + page] PageState
  std::unique_ptr<SlotRecord[], ArenaFree> slots_;  ///< [page * subs + slot]
};

}  // namespace esp::nand
