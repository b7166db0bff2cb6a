// Run-identifying fields shared by the hdr line of every sidecar stream
// (journal, health, forensics), and the one formatter for their shard tag.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace esp::telemetry {

/// Run-identifying fields written into a sidecar stream's hdr line. Each
/// stream prints the fields its schema names (health omits page_bytes).
struct StreamHeader {
  std::string ftl;
  std::uint32_t chips = 0;
  std::uint32_t blocks_per_chip = 0;
  std::uint32_t pages_per_block = 0;
  std::uint32_t subpages_per_page = 0;
  std::uint64_t page_bytes = 0;
  std::uint64_t seed = 0;
  /// Shard identity of a sharded run's per-shard stream (core/shard.h).
  std::uint32_t shard = 0;
  std::uint32_t shards = 1;
};

/// The hdr line's shard fields, `,"shard":I,"shards":N`, emitted only when
/// shards > 1 so unsharded streams keep their legacy bytes.
inline std::string shard_tag(const StreamHeader& header) {
  if (header.shards <= 1) return {};
  char buf[64];
  std::snprintf(buf, sizeof buf, ",\"shard\":%u,\"shards\":%u", header.shard,
                header.shards);
  return buf;
}

}  // namespace esp::telemetry
