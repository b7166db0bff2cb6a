#include "ftl/write_buffer.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace esp::ftl {
namespace {

constexpr std::uint64_t kEmpty = WriteBuffer::kReservedSector;

// Fibonacci hashing: the top bits of sector * 2^64/phi. Consecutive sectors
// -- the buffer's common case -- land far apart, so linear probing stays
// short even when whole pages are buffered.
constexpr std::uint64_t kHashMultiplier = 0x9E3779B97F4A7C15ull;

/// Slots for a table that keeps the load factor at or below 1/2 with
/// `entries` live entries.
std::size_t slots_for(std::size_t entries) {
  return std::bit_ceil(std::max<std::size_t>(16, 2 * entries));
}

}  // namespace

WriteBuffer::WriteBuffer(std::size_t capacity_sectors)
    : capacity_(capacity_sectors) {
  // A full buffer plus one request of up to `capacity` sectors fits
  // without growing the table.
  rehash(slots_for(2 * capacity_));
  // Compaction bounds the log by 2 * size + 17 entries, which is at most
  // slots + 17 while the table holds at most slots / 2 entries.
  log_.resize(2 * keys_.size());
}

std::size_t WriteBuffer::home(std::uint64_t sector) const {
  return static_cast<std::size_t>((sector * kHashMultiplier) >> shift_);
}

std::size_t WriteBuffer::probe(std::uint64_t sector) const {
  const std::size_t mask = keys_.size() - 1;
  std::size_t i = home(sector);
  while (keys_[i] != kEmpty && keys_[i] != sector) i = (i + 1) & mask;
  return i;
}

std::size_t WriteBuffer::find(std::uint64_t sector) const {
  const std::size_t i = probe(sector);
  return keys_[i] == kEmpty ? kNotFound : i;
}

void WriteBuffer::rehash(std::size_t slots) {
  const std::vector<std::uint64_t> old_keys =
      std::exchange(keys_, std::vector<std::uint64_t>(slots, kEmpty));
  const std::vector<Value> old_vals =
      std::exchange(vals_, std::vector<Value>(slots));
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  for (std::size_t j = 0; j < old_keys.size(); ++j) {
    if (old_keys[j] == kEmpty) continue;
    const std::size_t i = probe(old_keys[j]);
    keys_[i] = old_keys[j];
    vals_[i] = old_vals[j];
  }
}

void WriteBuffer::remove_slot(std::size_t i) {
  // Backward shift: walk the cluster after the hole and pull back every
  // entry whose probe path passes through the hole, so lookups never need
  // tombstones.
  const std::size_t mask = keys_.size() - 1;
  for (std::size_t j = (i + 1) & mask; keys_[j] != kEmpty;
       j = (j + 1) & mask) {
    const std::size_t h = home(keys_[j]);
    if (((j - h) & mask) >= ((j - i) & mask)) {
      keys_[i] = keys_[j];
      vals_[i] = vals_[j];
      i = j;
    }
  }
  keys_[i] = kEmpty;
  --size_;
}

void WriteBuffer::take_slot(std::size_t i, std::vector<BufferedSector>& out) {
  out.push_back(BufferedSector{keys_[i], vals_[i].token, vals_[i].small});
  remove_slot(i);
}

bool WriteBuffer::insert(std::uint64_t sector, std::uint64_t token,
                         bool small) {
  if (sector == kEmpty)
    throw std::invalid_argument("WriteBuffer::insert: reserved sector");
  const std::uint64_t seq = next_seq_++;
  std::size_t i = probe(sector);
  const bool fresh = keys_[i] == kEmpty;
  if (fresh) {
    if (2 * (size_ + 1) > keys_.size()) {
      rehash(2 * keys_.size());
      i = probe(sector);
    }
    keys_[i] = sector;
    ++size_;
  }
  vals_[i] = Value{token, seq, small};
  log_push(LogEntry{seq, sector});
  // Overwrite-heavy workloads (one hot sector rewritten forever) append a
  // log entry per insert but never extract, so lazy pruning alone lets the
  // log grow without bound. Compact once stale entries outnumber live
  // ones 2:1; amortized O(1) per insert.
  if (log_size_ > 2 * size_ + 16) compact_age_log();
  return !fresh;
}

void WriteBuffer::log_push(const LogEntry& e) {
  if (log_size_ == log_.size()) {
    std::vector<LogEntry> grown(2 * log_.size());
    for (std::size_t k = 0; k < log_size_; ++k) grown[k] = log_at(k);
    log_.swap(grown);
    log_head_ = 0;
  }
  log_[(log_head_ + log_size_) & (log_.size() - 1)] = e;
  ++log_size_;
}

bool WriteBuffer::is_live(const LogEntry& e) const {
  const std::size_t i = find(e.sector);
  return i != kNotFound && vals_[i].seq == e.seq;
}

void WriteBuffer::compact_age_log() {
  // In place: the write cursor never passes the read cursor.
  const std::size_t mask = log_.size() - 1;
  std::size_t kept = 0;
  for (std::size_t k = 0; k < log_size_; ++k) {
    const LogEntry e = log_at(k);
    if (is_live(e)) log_[(log_head_ + kept++) & mask] = e;
  }
  log_size_ = kept;
}

std::uint64_t WriteBuffer::oldest_live_sector() {
  while (log_size_ > 0) {
    const LogEntry& front = log_at(0);
    if (is_live(front)) return front.sector;
    // Stale: overwritten or already extracted.
    log_head_ = (log_head_ + 1) & (log_.size() - 1);
    --log_size_;
  }
  return kEmpty;
}

bool WriteBuffer::lookup(std::uint64_t sector, std::uint64_t* token) const {
  const std::size_t i = find(sector);
  if (i == kNotFound) return false;
  if (token) *token = vals_[i].token;
  return true;
}

bool WriteBuffer::erase(std::uint64_t sector) {
  const std::size_t i = find(sector);
  if (i == kNotFound) return false;
  remove_slot(i);
  return true;
}

void WriteBuffer::extract_run(std::uint64_t sector,
                              std::vector<BufferedSector>& out) {
  out.clear();
  if (!contains(sector)) return;
  // Walk down to the start of the contiguous run, then sweep upward.
  std::uint64_t lo = sector;
  while (lo > 0 && contains(lo - 1)) --lo;
  for (std::uint64_t s = lo;; ++s) {
    const std::size_t i = find(s);
    if (i == kNotFound) break;
    take_slot(i, out);
  }
}

void WriteBuffer::extract_oldest_run(std::vector<BufferedSector>& out) {
  const std::uint64_t sector = oldest_live_sector();
  if (sector == kEmpty) {
    out.clear();
    return;
  }
  extract_run(sector, out);
}

void WriteBuffer::extract_page_group(std::uint64_t sector,
                                     std::uint32_t sectors_per_page,
                                     std::vector<BufferedSector>& out) {
  out.clear();
  if (!contains(sector)) return;
  const auto page_has = [this, sectors_per_page](std::uint64_t lpn) {
    for (std::uint32_t s = 0; s < sectors_per_page; ++s)
      if (contains(lpn * sectors_per_page + s)) return true;
    return false;
  };
  std::uint64_t lo = sector / sectors_per_page;
  while (lo > 0 && page_has(lo - 1)) --lo;
  std::uint64_t hi = sector / sectors_per_page;
  while (page_has(hi + 1)) ++hi;
  for (std::uint64_t lpn = lo; lpn <= hi; ++lpn) {
    for (std::uint32_t s = 0; s < sectors_per_page; ++s) {
      const std::uint64_t cur = lpn * sectors_per_page + s;
      const std::size_t i = find(cur);
      if (i != kNotFound) take_slot(i, out);
    }
  }
}

void WriteBuffer::extract_oldest_page_group(std::uint32_t sectors_per_page,
                                            std::vector<BufferedSector>& out) {
  const std::uint64_t sector = oldest_live_sector();
  if (sector == kEmpty) {
    out.clear();
    return;
  }
  extract_page_group(sector, sectors_per_page, out);
}

namespace {
/// One archived entry, written raw. The tail padding is an explicit
/// member so that it is zero in the archive: implicit padding would carry
/// whatever the sort's temporaries held.
struct ArchivedEntry {
  std::uint64_t sector;
  std::uint64_t token;
  std::uint64_t seq;
  std::uint8_t small;
  std::uint8_t pad[7];
};
static_assert(sizeof(ArchivedEntry) == 32);
}  // namespace

void WriteBuffer::save_state(util::StateWriter& w) const {
  w.tag("WBUF");
  w.u64(capacity_);
  w.u64(next_seq_);
  std::vector<ArchivedEntry> sorted(size_);  // value-initialized: pad = 0
  std::size_t n = 0;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == kEmpty) continue;
    ArchivedEntry& e = sorted[n++];
    e.sector = keys_[i];
    e.token = vals_[i].token;
    e.seq = vals_[i].seq;
    e.small = vals_[i].small ? 1 : 0;
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const ArchivedEntry& a, const ArchivedEntry& b) {
              return a.sector < b.sector;
            });
  w.pod_vec(sorted);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> log;
  log.reserve(log_size_);
  for (std::size_t k = 0; k < log_size_; ++k)
    log.emplace_back(log_at(k).seq, log_at(k).sector);
  w.pair_vec(log);
}

void WriteBuffer::load_state(util::StateReader& r) {
  r.tag("WBUF");
  if (r.u64() != capacity_)
    throw std::runtime_error("WriteBuffer::load_state: capacity mismatch");
  next_seq_ = r.u64();
  std::vector<ArchivedEntry> sorted;
  r.pod_vec(sorted);
  std::fill(keys_.begin(), keys_.end(), kEmpty);
  size_ = 0;
  rehash(std::max(keys_.size(), slots_for(sorted.size())));
  for (const ArchivedEntry& e : sorted) {
    const std::size_t i = probe(e.sector);
    if (e.sector == kEmpty || keys_[i] == e.sector)
      throw std::runtime_error(
          "WriteBuffer::load_state: reserved or duplicate sector");
    keys_[i] = e.sector;
    vals_[i] = Value{e.token, e.seq, e.small != 0};
    ++size_;
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> log;
  r.pair_vec(log);
  log_.resize(std::max(log_.size(), std::bit_ceil(log.size())));
  log_head_ = 0;
  log_size_ = log.size();
  for (std::size_t k = 0; k < log.size(); ++k)
    log_[k] = LogEntry{log[k].first, log[k].second};
}

}  // namespace esp::ftl
