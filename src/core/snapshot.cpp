#include "core/snapshot.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/serialize.h"

namespace esp::core {

namespace {

// FNV-1a 64-bit over a byte buffer.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Section tags, per SnapshotSection (the error messages name them).
constexpr const char* kSectionTags[kSnapshotSections] = {"TELM", "JRNL",
                                                         "AUDT", "HLTH",
                                                         "FRNS"};

void write_meta(util::StateWriter& w, const SnapshotMeta& m) {
  w.tag("META");
  w.u64(m.workload_seed);
  w.u64(m.source_consumed);
  w.u64(m.measured_done);
  w.f64(m.saved_at_us);
  for (const std::uint64_t offset : m.sidecar_offset) w.u64(offset);
  for (const bool has : m.has) w.b(has);
}

SnapshotMeta read_meta(util::StateReader& r) {
  SnapshotMeta m;
  r.tag("META");
  m.workload_seed = r.u64();
  m.source_consumed = r.u64();
  m.measured_done = r.u64();
  m.saved_at_us = r.f64();
  for (std::uint64_t& offset : m.sidecar_offset) offset = r.u64();
  for (bool& has : m.has) has = r.b();
  return m;
}

// Reads one length-prefixed section: dispatches to the part's loader when
// it has one, skips the bytes otherwise. Verifies the loader ate exactly
// the recorded length -- a drifted layer fails here instead of corrupting
// the next section.
void read_section(std::istream& is, util::StateReader& r, const char* name,
                  const SnapshotPart& part) {
  const std::uint64_t len = r.u64();
  if (!part.load) {
    is.seekg(static_cast<std::streamoff>(len), std::ios::cur);
    if (!is)
      throw std::runtime_error(std::string("read_snapshot_state: cannot "
                                           "skip section ") +
                               name);
    return;
  }
  const std::streampos before = is.tellg();
  part.load(r);
  const std::streampos after = is.tellg();
  if (after - before != static_cast<std::streamoff>(len))
    throw std::runtime_error(
        std::string("read_snapshot_state: section ") + name + " consumed " +
        std::to_string(static_cast<long long>(after - before)) +
        " bytes, recorded " + std::to_string(len));
}

}  // namespace

std::uint64_t config_fingerprint(const SsdConfig& c) {
  std::ostringstream buf(std::ios::binary);
  util::StateWriter w(buf);
  // Canonical field-by-field serialization: never hash struct memory
  // (padding bytes), and keep the order append-only so the fingerprint is
  // stable across builds of the same source tree.
  w.u32(c.geometry.channels);
  w.u32(c.geometry.chips_per_channel);
  w.u32(c.geometry.blocks_per_chip);
  w.u32(c.geometry.pages_per_block);
  w.u32(c.geometry.page_bytes);
  w.u32(c.geometry.subpages_per_page);
  w.f64(c.timing.read_full_us);
  w.f64(c.timing.read_sub_us);
  w.f64(c.timing.prog_full_us);
  w.f64(c.timing.prog_sub_us);
  w.f64(c.timing.erase_us);
  w.f64(c.timing.xfer_us_per_kb);
  w.f64(c.timing.cmd_overhead_us);
  w.f64(c.retention.npp_base_slope);
  w.f64(c.retention.time_slope);
  w.f64(c.retention.npp_time_factor);
  w.f64(c.retention.ecc_limit);
  w.u32(c.retention.rated_pe_cycles);
  w.f64(c.retention.overwear_slope);
  w.f64(c.retention.wear_exponent);
  w.f64(c.retention.fullpage_rated_months);
  w.u8(static_cast<std::uint8_t>(c.ftl));
  w.f64(c.logical_fraction);
  w.f64(c.subpage_region_fraction);
  w.f64(c.retention_evict_age);
  w.f64(c.retention_scan_interval);
  w.u64(c.buffer_sectors);
  w.u64(c.gc_reserve_blocks);
  w.u32(c.queue_depth);
  w.u32(c.wl_pe_threshold);
  w.u32(c.wl_check_interval);
  w.b(c.use_copyback);
  w.b(c.reference_scan_maintenance);
  return fnv1a(buf.str());
}

void write_snapshot(std::ostream& os, const SnapshotMeta& meta,
                    const Ssd& ssd, const SnapshotParts& parts) {
  util::StateWriter w(os);
  w.raw(kSnapshotMagic, sizeof kSnapshotMagic);
  w.u32(kSnapshotFormatVersion);
  w.u64(config_fingerprint(ssd.config()));

  SnapshotMeta m = meta;
  for (std::size_t i = 0; i < kSnapshotSections; ++i)
    m.has[i] = static_cast<bool>(parts[i].save);
  write_meta(w, m);

  ssd.save_state(w);
  // Optional sections are buffered and written behind a byte-length
  // prefix, so a reader without the matching loader can skip them whole.
  for (const SnapshotPart& part : parts) {
    if (!part.save) continue;
    std::ostringstream buf(std::ios::binary);
    util::StateWriter sw(buf);
    part.save(sw);
    const std::string bytes = buf.str();
    w.u64(bytes.size());
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!os) throw std::runtime_error("write_snapshot: write failed");
  }
  os.flush();
  if (!os) throw std::runtime_error("write_snapshot: flush failed");
}

SnapshotMeta read_snapshot_meta(std::istream& is, const SsdConfig& config) {
  util::StateReader r(is);
  char magic[sizeof kSnapshotMagic];
  r.raw(magic, sizeof magic);
  if (std::memcmp(magic, kSnapshotMagic, sizeof magic) != 0)
    throw std::runtime_error("read_snapshot_meta: not an ESP snapshot file");
  const std::uint32_t version = r.u32();
  if (version != kSnapshotFormatVersion)
    throw std::runtime_error(
        "read_snapshot_meta: snapshot format version " +
        std::to_string(version) + ", this build reads version " +
        std::to_string(kSnapshotFormatVersion));
  const std::uint64_t fp = r.u64();
  const std::uint64_t want = config_fingerprint(config);
  if (fp != want)
    throw std::runtime_error(
        "read_snapshot_meta: config fingerprint mismatch (snapshot " +
        std::to_string(fp) + ", current config " + std::to_string(want) +
        ") -- a snapshot only restores into the exact SsdConfig that "
        "produced it");
  return read_meta(r);
}

void read_snapshot_state(std::istream& is, const SnapshotMeta& meta, Ssd& ssd,
                         const SnapshotParts& parts) {
  util::StateReader r(is);
  ssd.load_state(r);
  for (std::size_t i = 0; i < kSnapshotSections; ++i)
    if (meta.has[i]) read_section(is, r, kSectionTags[i], parts[i]);
}

void save_snapshot_file(const std::string& path, const SnapshotMeta& meta,
                        const Ssd& ssd, const SnapshotParts& parts) {
  std::ofstream os(path, std::ios::out | std::ios::trunc | std::ios::binary);
  if (!os)
    throw std::runtime_error("save_snapshot_file: cannot open " + path);
  write_snapshot(os, meta, ssd, parts);
}

}  // namespace esp::core
