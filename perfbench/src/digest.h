// Simulated-state digest: one 64-bit FNV-1a hash over every deterministic
// field of a measured window -- request counts, the simulated clock, both
// latency histograms bucket by bucket, the window's FtlStats counters and
// device erases, and the chip/channel utilization figures. Host-side wall
// and CPU times and the maint_*_ns timers are left out: they differ run to
// run. Two runs of one cell digest equal iff they simulated the same
// thing, which is how the benchmark proves its probes are passive.
#pragma once

#include <cstdint>

#include "core/experiment.h"

namespace perfbench {

class Fnv64 {
 public:
  void add(const void* data, std::size_t n);
  void u64(std::uint64_t v) { add(&v, sizeof v); }
  void f64(double v) { add(&v, sizeof v); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Digest of one run. A sharded result digests its shards in index order
/// (the merged counters are sums of those, checked separately).
std::uint64_t sim_digest(const esp::core::RunResult& r);

}  // namespace perfbench
