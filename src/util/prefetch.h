// Host-cache prefetch hint.
//
// Dependent DRAM misses bound the simulator's prod-geometry hot paths: a
// batch of evictions walks mapping tables, pool metadata and device slot
// state that far exceed the CPU caches. Batched paths issue the hints for
// the whole batch before using any of the lines, so the misses overlap
// instead of serializing. A hint changes no program state and no simulated
// quantity -- only which host cache lines are resident when the real loads
// run -- so decisions, simulated times and archives are identical with or
// without it.
#pragma once

namespace esp::util {

/// Requests the cache line holding `p`. Never faults, even for an address
/// that is not mapped.
inline void prefetch(const void* p) { __builtin_prefetch(p); }

}  // namespace esp::util
