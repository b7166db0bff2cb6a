// Host-cache prefetch hint.
//
// Dependent DRAM misses bound the simulator's prod-geometry hot paths: a
// request walks mapping tables, pool metadata and device slot state that
// far exceed the CPU caches. Two kinds of path overlap those misses:
//   * batched paths (eviction) issue the hints for the whole batch before
//     using any of the lines, so the batch's misses overlap instead of
//     serializing;
//   * the driver reads the request stream ahead of submission and hints
//     the requests it has not issued yet (Ftl::prefetch): the map entries
//     of the request two ahead, then -- one request later, once those
//     entries are warm -- the device page and pool metadata they point
//     at. Each request's lines then load while earlier requests run.
// A hint changes no program state and no simulated quantity -- only which
// host cache lines are resident when the real loads run -- so decisions,
// simulated times and archives are identical with or without it.
#pragma once

#include <cstdint>

namespace esp::util {

/// Requests the cache line holding `p`. Never faults, even for an address
/// that is not mapped.
inline void prefetch(const void* p) { __builtin_prefetch(p); }

/// Requests every cache line that holds part of [first, last] (inclusive;
/// both point into one array, first <= last).
template <typename T>
inline void prefetch_range(const T* first, const T* last) {
  constexpr std::uintptr_t kLine = 64;
  const auto end = reinterpret_cast<std::uintptr_t>(last);
  for (auto line = reinterpret_cast<std::uintptr_t>(first) & ~(kLine - 1);
       line <= end; line += kLine)
    prefetch(reinterpret_cast<const void*>(line));
}

}  // namespace esp::util
