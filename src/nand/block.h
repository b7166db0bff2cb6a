// Per-block NAND state machine enforcing ESP programming semantics.
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
// Illegal *command sequences* (out-of-order slot, programming a full page
// over a partially written one) throw std::logic_error: on silicon these
// are firmware bugs, and the tests rely on them failing loudly.
#pragma once

#include <cstdint>
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

/// One erase block: page modes, per-slot data, and P/E wear.
class Block {
 public:
  Block(std::uint32_t pages_per_block, std::uint32_t subpages_per_page);

  /// Erases the whole block, incrementing the P/E count.
  void erase();

  /// Conventional full-page program; requires an erased page.
  /// tokens.size() must equal subpages_per_page (one token per subpage's
  /// worth of data).
  void program_full(std::uint32_t page, std::span<const std::uint64_t> tokens,
                    SimTime now);

  /// ESP subpage program. `slot` must be the page's next unprogrammed slot
  /// (sequential order is a NAND constraint: later word-line segments would
  /// otherwise be disturbed unpredictably). Destroys previously programmed
  /// slots of the page.
  void program_subpage(std::uint32_t page, std::uint32_t slot,
                       std::uint64_t token, SimTime now);

  SlotView slot(std::uint32_t page, std::uint32_t slot) const;
  PageMode page_mode(std::uint32_t page) const { return mode_.at(page); }
  /// Number of program operations the page's word line has received this
  /// erase cycle (= next programmable slot index in ESP mode).
  std::uint32_t slots_programmed(std::uint32_t page) const {
    return programmed_.at(page);
  }

  /// Host-cache hint (util/prefetch.h): pulls the page's mode, program
  /// count and slot state toward the CPU caches ahead of a read or
  /// program. No effect on block state.
  void prefetch_page(std::uint32_t page) const {
    if (page >= pages_) return;
    const std::size_t first = idx(page, 0);
    const std::size_t last = idx(page, subs_ - 1);
    util::prefetch(&mode_[page]);
    util::prefetch(&programmed_[page]);
    util::prefetch(&state_[first]);
    util::prefetch(&npp_[first]);
    util::prefetch(&token_[first]);
    util::prefetch(&token_[last]);
    util::prefetch(&written_at_[first]);
    util::prefetch(&written_at_[last]);
  }

  std::uint32_t pe_cycles() const { return pe_cycles_; }
  std::uint32_t pages() const { return pages_; }
  std::uint32_t subpages_per_page() const { return subs_; }
  /// Pages with at least one program this erase cycle.
  std::uint32_t programmed_pages() const { return programmed_pages_; }
  /// Simulated time of the first program since the last erase; negative
  /// when the block is erased. Retention age of the oldest data is
  /// `now - first_program_us()`.
  SimTime first_program_us() const { return first_program_us_; }
  /// True when no page has been programmed since the last erase.
  bool is_erased() const;

  /// Epoch fast-forward support: accrues `cycles` P/E cycles without an
  /// erase command, modeling wear accumulated during a compressed aging
  /// epoch. Page contents and program state are untouched -- the resident
  /// data stands in for the last rewrite of the epoch.
  void add_wear(std::uint32_t cycles) noexcept { pe_cycles_ += cycles; }

  /// Snapshot support: full per-slot state. Shape (pages, subpages) must
  /// match the constructed block on load.
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  std::size_t idx(std::uint32_t page, std::uint32_t slot) const {
    return static_cast<std::size_t>(page) * subs_ + slot;
  }
  void check_page(std::uint32_t page) const;

  std::uint32_t pages_;
  std::uint32_t subs_;
  std::uint32_t pe_cycles_ = 0;
  std::uint32_t programmed_pages_ = 0;  ///< pages with >=1 program this cycle
  SimTime first_program_us_ = -1.0;     ///< first program since erase (<0: none)

  std::vector<PageMode> mode_;
  std::vector<std::uint8_t> programmed_;  ///< per page: slots programmed
  // Structure-of-arrays slot state (memory-dense; one block holds
  // pages * subs slots).
  std::vector<SlotState> state_;
  std::vector<std::uint8_t> npp_;
  std::vector<std::uint64_t> token_;
  std::vector<SimTime> written_at_;
};

}  // namespace esp::nand
