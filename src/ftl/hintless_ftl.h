// HintlessFtl: an Ftl decorator that forwards every call except prefetch,
// which stays the base class's no-op.
//
// Ftl::prefetch promises to change nothing but host cache residency. A
// driver over HintlessFtl is the reference run for that promise: the hint
// contract test compares its journals, stats and archives against the same
// stream run over the bare FTL, and micro_ftl_ops' BM_DriverReplay/blind
// times the stream without the hints.
#pragma once

#include "ftl/ftl.h"

namespace esp::ftl {

class HintlessFtl final : public Ftl {
 public:
  explicit HintlessFtl(Ftl& inner) : inner_(inner) {}

  IoResult write(std::uint64_t sector, std::uint32_t count, bool sync,
                 SimTime now) override {
    return inner_.write(sector, count, sync, now);
  }
  IoResult read(std::uint64_t sector, std::uint32_t count, SimTime now,
                std::vector<std::uint64_t>* tokens) override {
    return inner_.read(sector, count, now, tokens);
  }
  IoResult flush(SimTime now) override { return inner_.flush(now); }
  void trim(std::uint64_t sector, std::uint32_t count) override {
    inner_.trim(sector, count);
  }
  SimTime tick(SimTime now) override { return inner_.tick(now); }
  std::uint64_t logical_sectors() const override {
    return inner_.logical_sectors();
  }
  const FtlStats& stats() const override { return inner_.stats(); }
  std::uint64_t mapping_memory_bytes() const override {
    return inner_.mapping_memory_bytes();
  }
  std::string name() const override { return inner_.name(); }
  void set_telemetry(telemetry::Sink* sink) override {
    inner_.set_telemetry(sink);
  }
  void collect_health(std::span<telemetry::BlockHealth> out) const override {
    inner_.collect_health(out);
  }
  std::uint64_t free_blocks() const override { return inner_.free_blocks(); }
  void save_state(util::StateWriter& w) const override {
    inner_.save_state(w);
  }
  void load_state(util::StateReader& r) override { inner_.load_state(r); }

 private:
  Ftl& inner_;
};

}  // namespace esp::ftl
