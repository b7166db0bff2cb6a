// SlotStore differential test: seeded random command sequences, legal and
// illegal, run side by side against a reference copy of the original
// per-block state machine that stored mode, program count, slot state, Npp
// type, token and program time in six arrays. The reference is the oracle
// for what must not change: every slot view, page mode, program count,
// block header, the exception type and message of every illegal command,
// and the bytes of every "BLK0" snapshot section.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "nand/slot_store.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace esp::nand {
namespace {

/// The original six-array block, kept verbatim in behavior as a test
/// oracle.
class ReferenceBlock {
 public:
  ReferenceBlock(std::uint32_t pages, std::uint32_t subs)
      : pages_(pages),
        subs_(subs),
        mode_(pages, PageMode::kErased),
        programmed_(pages, 0),
        state_(static_cast<std::size_t>(pages) * subs, SlotState::kEmpty),
        npp_(state_.size(), 0),
        token_(state_.size(), 0),
        written_at_(state_.size(), 0.0) {}

  void erase() {
    ++pe_cycles_;
    programmed_pages_ = 0;
    first_program_us_ = -1.0;
    std::fill(mode_.begin(), mode_.end(), PageMode::kErased);
    std::fill(programmed_.begin(), programmed_.end(), 0);
    std::fill(state_.begin(), state_.end(), SlotState::kEmpty);
    std::fill(npp_.begin(), npp_.end(), 0);
    std::fill(token_.begin(), token_.end(), 0);
    std::fill(written_at_.begin(), written_at_.end(), 0.0);
  }

  void program_full(std::uint32_t page, std::span<const std::uint64_t> tokens,
                    SimTime now) {
    check_page(page);
    if (tokens.size() != subs_)
      throw std::logic_error("Block::program_full: token count != subpages");
    if (mode_[page] != PageMode::kErased)
      throw std::logic_error(
          "Block::program_full: page already programmed this erase cycle");
    mode_[page] = PageMode::kFull;
    programmed_[page] = static_cast<std::uint8_t>(subs_);
    if (programmed_pages_++ == 0) first_program_us_ = now;
    for (std::uint32_t s = 0; s < subs_; ++s) {
      const std::size_t i = idx(page, s);
      state_[i] = SlotState::kStored;
      npp_[i] = 0;
      token_[i] = tokens[s];
      written_at_[i] = now;
    }
  }

  void program_subpage(std::uint32_t page, std::uint32_t slot,
                       std::uint64_t token, SimTime now) {
    check_page(page);
    if (slot >= subs_)
      throw std::out_of_range("Block::program_subpage: slot out of range");
    if (mode_[page] == PageMode::kFull)
      throw std::logic_error(
          "Block::program_subpage: page holds a full-page program");
    if (slot != programmed_[page])
      throw std::logic_error(
          "Block::program_subpage: slots must be programmed sequentially "
          "(next=" + std::to_string(programmed_[page]) +
          ", got=" + std::to_string(slot) + ")");
    for (std::uint32_t s = 0; s < slot; ++s) {
      const std::size_t i = idx(page, s);
      if (state_[i] == SlotState::kStored) state_[i] = SlotState::kCorrupted;
    }
    const std::size_t i = idx(page, slot);
    state_[i] = SlotState::kStored;
    npp_[i] = programmed_[page];
    token_[i] = token;
    written_at_[i] = now;
    if (programmed_[page] == 0) {
      mode_[page] = PageMode::kEsp;
      if (programmed_pages_++ == 0) first_program_us_ = now;
    }
    ++programmed_[page];
  }

  SlotView slot(std::uint32_t page, std::uint32_t slot) const {
    check_page(page);
    if (slot >= subs_)
      throw std::out_of_range("Block::slot: slot out of range");
    const std::size_t i = idx(page, slot);
    return SlotView{state_[i], token_[i], written_at_[i], npp_[i]};
  }
  PageMode page_mode(std::uint32_t page) const { return mode_.at(page); }
  std::uint32_t slots_programmed(std::uint32_t page) const {
    return programmed_.at(page);
  }
  std::uint32_t pe_cycles() const { return pe_cycles_; }
  std::uint32_t programmed_pages() const { return programmed_pages_; }
  SimTime first_program_us() const { return first_program_us_; }
  void add_wear(std::uint32_t cycles) { pe_cycles_ += cycles; }

  void save_state(util::StateWriter& w) const {
    w.tag("BLK0");
    w.u32(pages_);
    w.u32(subs_);
    w.u32(pe_cycles_);
    w.u32(programmed_pages_);
    w.f64(first_program_us_);
    w.pod_vec(mode_);
    w.pod_vec(programmed_);
    w.pod_vec(state_);
    w.pod_vec(npp_);
    w.pod_vec(token_);
    w.pod_vec(written_at_);
  }

  void load_state(util::StateReader& r) {
    r.tag("BLK0");
    if (r.u32() != pages_ || r.u32() != subs_)
      throw std::runtime_error("reference: geometry mismatch");
    pe_cycles_ = r.u32();
    programmed_pages_ = r.u32();
    first_program_us_ = r.f64();
    r.pod_vec(mode_);
    r.pod_vec(programmed_);
    r.pod_vec(state_);
    r.pod_vec(npp_);
    r.pod_vec(token_);
    r.pod_vec(written_at_);
  }

 private:
  std::size_t idx(std::uint32_t page, std::uint32_t slot) const {
    return static_cast<std::size_t>(page) * subs_ + slot;
  }
  void check_page(std::uint32_t page) const {
    if (page >= pages_)
      throw std::out_of_range("Block: page " + std::to_string(page) +
                              " out of range");
  }

  std::uint32_t pages_;
  std::uint32_t subs_;
  std::uint32_t pe_cycles_ = 0;
  std::uint32_t programmed_pages_ = 0;
  SimTime first_program_us_ = -1.0;
  std::vector<PageMode> mode_;
  std::vector<std::uint8_t> programmed_;
  std::vector<SlotState> state_;
  std::vector<std::uint8_t> npp_;
  std::vector<std::uint64_t> token_;
  std::vector<SimTime> written_at_;
};

/// What a command did: nothing thrown, or the most-derived standard
/// exception type it threw, with its message.
struct Outcome {
  std::string kind = "ok";
  std::string what;
  bool operator==(const Outcome&) const = default;
};

template <typename F>
Outcome run(F&& op) {
  try {
    op();
    return {};
  } catch (const std::out_of_range& e) {
    return {"out_of_range", e.what()};
  } catch (const std::invalid_argument& e) {
    return {"invalid_argument", e.what()};
  } catch (const std::logic_error& e) {
    return {"logic_error", e.what()};
  } catch (const std::runtime_error& e) {
    return {"runtime_error", e.what()};
  }
}

constexpr std::uint32_t kPages = 6;
constexpr std::size_t kBlocks = 3;

std::string block_bytes(const ReferenceBlock& ref) {
  std::ostringstream os;
  util::StateWriter w(os);
  ref.save_state(w);
  return os.str();
}

std::string block_bytes(const SlotStore& store, std::size_t blk) {
  std::ostringstream os;
  util::StateWriter w(os);
  store.save_block(blk, w);
  return os.str();
}

void expect_same(const std::vector<ReferenceBlock>& refs,
                 const SlotStore& store, std::uint32_t subs,
                 const std::string& where) {
  SCOPED_TRACE(where);
  for (std::size_t b = 0; b < refs.size(); ++b) {
    const ReferenceBlock& ref = refs[b];
    ASSERT_EQ(store.pe_cycles(b), ref.pe_cycles());
    ASSERT_EQ(store.programmed_pages(b), ref.programmed_pages());
    ASSERT_EQ(store.first_program_us(b), ref.first_program_us());
    ASSERT_EQ(store.is_erased(b), ref.programmed_pages() == 0);
    for (std::uint32_t p = 0; p < kPages; ++p) {
      ASSERT_EQ(store.page_mode(b, p), ref.page_mode(p));
      ASSERT_EQ(store.slots_programmed(b, p), ref.slots_programmed(p));
      for (std::uint32_t s = 0; s < subs; ++s) {
        const SlotView a = store.slot(b, p, s);
        const SlotView e = ref.slot(p, s);
        ASSERT_EQ(a.state, e.state) << "block " << b << " page " << p
                                    << " slot " << s;
        ASSERT_EQ(a.token, e.token);
        ASSERT_EQ(a.written_at, e.written_at);
        ASSERT_EQ(a.npp, e.npp);
      }
    }
  }
}

void run_sequence(std::uint32_t subs, std::uint64_t seed, int ops) {
  std::vector<ReferenceBlock> refs(kBlocks, ReferenceBlock(kPages, subs));
  SlotStore store(kBlocks, kPages, subs);
  util::Xoshiro256 rng(seed);
  SimTime now = 0.0;
  std::vector<std::uint64_t> tokens;
  for (int op = 0; op < ops; ++op) {
    now += static_cast<SimTime>(rng.below(1000)) + 0.25;
    const std::size_t b = rng.below(kBlocks);
    ReferenceBlock& ref = refs[b];
    // Mostly in-range pages and the page's next slot, so sequences go
    // deep; the rest probe every illegal-command path.
    const std::uint32_t page =
        rng.chance(0.05) ? kPages + static_cast<std::uint32_t>(rng.below(2))
                         : static_cast<std::uint32_t>(rng.below(kPages));
    const std::uint32_t choice = static_cast<std::uint32_t>(rng.below(100));
    Outcome want;
    Outcome got;
    if (choice < 30) {
      std::uint32_t slot = page < kPages ? ref.slots_programmed(page) : 0;
      if (rng.chance(0.15))
        slot = static_cast<std::uint32_t>(rng.below(subs + 2));
      const std::uint64_t token = rng();
      want = run([&] { ref.program_subpage(page, slot, token, now); });
      got = run([&] { store.program_subpage(b, page, slot, token, now); });
    } else if (choice < 45) {
      tokens.resize(rng.chance(0.1) ? rng.below(subs + 2) : subs);
      for (auto& t : tokens) t = rng();
      want = run([&] { ref.program_full(page, tokens, now); });
      got = run([&] { store.program_full(b, page, tokens, now); });
    } else if (choice < 52) {
      ref.erase();
      store.erase(b);
    } else if (choice < 55) {
      const auto cycles = static_cast<std::uint32_t>(rng.below(50));
      ref.add_wear(cycles);
      store.add_wear(b, cycles);
    } else {
      const auto slot = static_cast<std::uint32_t>(
          rng.chance(0.05) ? subs + rng.below(2) : rng.below(subs));
      SlotView e;
      SlotView a;
      want = run([&] { e = ref.slot(page, slot); });
      got = run([&] { a = store.slot(b, page, slot); });
      if (want.kind == "ok" && got.kind == "ok") {
        ASSERT_EQ(a.state, e.state);
        ASSERT_EQ(a.token, e.token);
        ASSERT_EQ(a.written_at, e.written_at);
        ASSERT_EQ(a.npp, e.npp);
      }
      if (page >= kPages) {
        want = run([&] { (void)ref.page_mode(page); });
        got = run([&] { (void)store.page_mode(b, page); });
        ASSERT_EQ(got.kind, want.kind) << "op " << op;
        want = got = {};
      }
    }
    ASSERT_EQ(got, want) << "op " << op;
    const std::string where = "subs " + std::to_string(subs) + " seed " +
                              std::to_string(seed) + " op " +
                              std::to_string(op);
    expect_same(refs, store, subs, where);
    if (::testing::Test::HasFatalFailure()) return;
    if (op % 64 != 63) continue;
    // Archive bytes, then a load round trip each way.
    SlotStore restored(kBlocks, kPages, subs);
    std::vector<ReferenceBlock> restored_refs(kBlocks,
                                              ReferenceBlock(kPages, subs));
    for (std::size_t k = 0; k < kBlocks; ++k) {
      const std::string bytes = block_bytes(refs[k]);
      ASSERT_EQ(block_bytes(store, k), bytes) << where << " block " << k;
      std::istringstream is(bytes);
      util::StateReader r(is);
      restored.load_block(k, r);
      ASSERT_EQ(block_bytes(restored, k), bytes);
      std::istringstream is2(block_bytes(store, k));
      util::StateReader r2(is2);
      restored_refs[k].load_state(r2);
    }
    expect_same(refs, restored, subs, where + " (restored store)");
    expect_same(restored_refs, store, subs, where + " (restored reference)");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

class SlotStoreDifferential : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(SlotStoreDifferential, MatchesSixArrayReference) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    run_sequence(GetParam(), seed, 3000);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(SubpagesPerPage, SlotStoreDifferential,
                         ::testing::Values(1u, 2u, 4u, 8u));

}  // namespace
}  // namespace esp::nand
