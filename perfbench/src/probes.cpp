#include "probes.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/experiment.h"

namespace perfbench {

using esp::SimTime;
using esp::ftl::IoResult;
using esp::workload::Request;

// ---- ChunkClock ------------------------------------------------------------

ChunkClock::ChunkClock(esp::workload::RequestSource& inner, std::uint64_t skip,
                       std::uint64_t chunk, std::uint64_t mid,
                       std::function<void(int)> on_phase, bool probe)
    : inner_(inner),
      skip_(skip),
      chunk_(chunk == 0 ? 1 : chunk),
      mid_(mid),
      on_phase_(std::move(on_phase)) {
  if (probe) probe_.emplace();
}

void ChunkClock::stamp(bool probe) {
  const std::uint64_t t = now_ns();
  const double cpu_s = esp::core::thread_cpu_seconds();
  if (open_requests_ > 0)
    chunks_.push_back({open_requests_,
                       static_cast<std::uint64_t>(
                           std::llround((cpu_s - last_cpu_s_) * 1e9)),
                       last_probe_ns_});
  open_requests_ = 0;
  last_ns_ = t;
  last_cpu_s_ = cpu_s;
  if (probe && probe_) {
    last_probe_ns_ = probe_->pass_ns();
    probe_total_ns_ += last_probe_ns_;
    last_ns_ = now_ns();
    last_cpu_s_ = esp::core::thread_cpu_seconds();
  }
}

std::optional<Request> ChunkClock::next() {
  if (pulled_ >= skip_ && !ended_) {
    const std::uint64_t k = pulled_ - skip_;
    if (k == 0) {
      if (on_phase_) on_phase_(0);
      stamp(/*probe=*/false);
      start_ns_ = last_ns_;
      stamp(/*probe=*/true);
    } else if (k % chunk_ == 0) {
      stamp(/*probe=*/true);
    }
    if (on_phase_ && mid_ > 0 && k == mid_) on_phase_(1);
  }
  std::optional<Request> r = inner_.next();
  if (!r) {
    if (pulled_ >= skip_ && !ended_) {
      stamp(/*probe=*/false);
      ended_ = true;
      if (on_phase_) on_phase_(2);
    }
    return r;
  }
  if (pulled_ >= skip_) ++open_requests_;
  ++pulled_;
  return r;
}

// ---- SpeedProbe ------------------------------------------------------------

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  return x ^ (x >> 29);
}

/// 32 MiB of pseudo-random words: 16x a core's L2 on the reference host.
const std::vector<std::uint64_t>& large_table() {
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(std::size_t{1} << 22);
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = mix64(i + 1);
    return t;
  }();
  return table;
}

}  // namespace

SpeedProbe::SpeedProbe() : small_(2048), large_(large_table()) {
  for (std::size_t i = 0; i < small_.size(); ++i) small_[i] = mix64(~i);
}

std::uint64_t SpeedProbe::pass_ns() {
  const std::uint64_t t0 = now_ns();
  const std::uint64_t small_mask = small_.size() - 1;
  for (std::uint64_t s = 0; s < 512; ++s) {
    const std::uint64_t v = small_[small_at_];
    const std::uint64_t h = mix64(v ^ s);
    if (h & 1)
      acc_ += h >> 7;
    else
      acc_ ^= v;
    small_[small_at_] = v + h;
    small_at_ = h & small_mask;
  }
  // Dependent loads over the table's first 1 MiB (L2-sized), then over
  // all of it.
  constexpr std::uint64_t kL2Mask = (std::uint64_t{1} << 17) - 1;
  for (std::uint64_t s = 0; s < 128; ++s)
    l2_at_ = mix64(large_[l2_at_] ^ s) & kL2Mask;
  const std::uint64_t large_mask = large_.size() - 1;
  for (std::uint64_t s = 0; s < 48; ++s)
    large_at_ = mix64(large_[large_at_] ^ s) & large_mask;
  acc_ += l2_at_ + large_at_;
  return now_ns() - t0;
}

ChunkStats chunk_stats(std::span<const Chunk> chunks,
                       std::uint64_t chunk_requests) {
  std::vector<double> rates;
  rates.reserve(chunks.size());
  for (const Chunk& c : chunks)
    if (c.requests == chunk_requests && c.requests > 0)
      rates.push_back(static_cast<double>(c.cpu_ns) /
                      static_cast<double>(c.requests));
  ChunkStats s;
  s.chunks = rates.size();
  if (rates.empty()) return s;
  std::sort(rates.begin(), rates.end());
  const auto rank = [&](double q) {
    const auto r = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(rates.size())));
    return std::clamp<std::size_t>(r, 1, rates.size()) - 1;
  };
  s.p50_ns = rates[rank(0.50)];
  const std::size_t i99 = rank(0.99);
  s.p99_ns = rates[i99];
  s.beyond_p99 = rates.size() - 1 - i99;
  return s;
}

std::vector<Chunk> probe_scaled(std::span<const Chunk> chunks) {
  constexpr std::size_t kRadius = 2;
  std::vector<Chunk> out(chunks.begin(), chunks.end());
  std::vector<std::uint64_t> near;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    near.clear();
    const std::size_t lo = i > kRadius ? i - kRadius : 0;
    const std::size_t hi = std::min(chunks.size(), i + kRadius + 1);
    for (std::size_t j = lo; j < hi; ++j)
      if (chunks[j].probe_ns > 0) near.push_back(chunks[j].probe_ns);
    if (near.empty()) continue;
    std::nth_element(near.begin(), near.begin() + near.size() / 2, near.end());
    const double local = static_cast<double>(near[near.size() / 2]);
    out[i].cpu_ns = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(chunks[i].cpu_ns) *
                     SpeedProbe::kReferenceNs / local));
  }
  return out;
}

// ---- SpanRecorder ----------------------------------------------------------

SpanRecorder::SpanRecorder(std::size_t capacity, std::uint64_t stride)
    : capacity_(capacity), stride_(stride == 0 ? 1 : stride) {
  spans_.reserve(capacity_);
}

void SpanRecorder::begin_request(std::uint64_t id, std::uint64_t at_ns) {
  end_request(at_ns);
  request_ = id;
  sampled_ = id % stride_ == 0;
  open("request", at_ns);
}

void SpanRecorder::end_request(std::uint64_t at_ns) {
  while (!stack_.empty()) close(stack_.back(), at_ns);
  sampled_ = false;
}

std::uint32_t SpanRecorder::open(const char* name, std::uint64_t at_ns) {
  if (!sampled_) return kNoSpan;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return kNoSpan;
  }
  Span s;
  s.name = name;
  s.request = request_;
  s.parent = stack_.empty() ? kNoSpan : stack_.back();
  s.start_ns = at_ns;
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(std::uint32_t span, std::uint64_t at_ns) {
  if (span == kNoSpan) return;
  spans_[span].end_ns = at_ns;
  // Spans close innermost-first; anything above `span` was left open by a
  // callee and ends with it.
  while (!stack_.empty()) {
    const std::uint32_t top = stack_.back();
    stack_.pop_back();
    if (top == span) break;
    spans_[top].end_ns = at_ns;
  }
}

void SpanRecorder::write_jsonl(std::ostream& os,
                               std::uint64_t epoch_ns) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"req\":" << s.request << ",\"parent\":"
       << (s.parent == kNoSpan ? -1 : static_cast<std::int64_t>(s.parent))
       << ",\"start_ns\":" << s.start_ns - epoch_ns
       << ",\"end_ns\":" << s.end_ns - epoch_ns << "}\n";
  }
}

// ---- TimedSource -----------------------------------------------------------

std::optional<Request> TimedSource::next() {
  const std::uint64_t t0 = now_ns();
  if (gen_.calls == 0) start_ns_ = t0;
  std::uint32_t span = kNoSpan;
  if (spans_) {
    spans_->begin_request(gen_.calls, t0);
    span = spans_->open("workload.next", t0);
  }
  std::optional<Request> r = inner_.next();
  const std::uint64_t t1 = now_ns();
  ++gen_.calls;
  gen_.ns += t1 - t0;
  if (spans_) {
    spans_->close(span, t1);
    if (!r) spans_->end_request(t1);
  }
  if (!r) end_ns_ = t1;
  return r;
}

// ---- TimedFtl --------------------------------------------------------------

namespace {

/// Times one forwarded call into `t`, as a span named `name`.
template <typename F>
auto timed(Timer& t, SpanRecorder* spans, const char* name, F&& call) {
  const std::uint64_t t0 = now_ns();
  const std::uint32_t span = spans ? spans->open(name, t0) : kNoSpan;
  struct Close {
    Timer& t;
    SpanRecorder* spans;
    std::uint32_t span;
    std::uint64_t t0;
    ~Close() {
      const std::uint64_t t1 = now_ns();
      ++t.calls;
      t.ns += t1 - t0;
      if (spans) spans->close(span, t1);
    }
  } close{t, spans, span, t0};
  return call();
}

}  // namespace

IoResult TimedFtl::write(std::uint64_t sector, std::uint32_t count, bool sync,
                         SimTime now) {
  return timed(write_t, spans_, "ftl.write",
               [&] { return inner_.write(sector, count, sync, now); });
}

IoResult TimedFtl::read(std::uint64_t sector, std::uint32_t count, SimTime now,
                        std::vector<std::uint64_t>* tokens) {
  return timed(read_t, spans_, "ftl.read",
               [&] { return inner_.read(sector, count, now, tokens); });
}

IoResult TimedFtl::flush(SimTime now) {
  return timed(flush_t, spans_, "ftl.flush",
               [&] { return inner_.flush(now); });
}

void TimedFtl::trim(std::uint64_t sector, std::uint32_t count) {
  timed(trim_t, spans_, "ftl.trim",
        [&] { inner_.trim(sector, count); });
}

SimTime TimedFtl::tick(SimTime now) {
  return timed(tick_t, spans_, "ftl.tick", [&] { return inner_.tick(now); });
}

void TimedFtl::collect_health(
    std::span<esp::telemetry::BlockHealth> out) const {
  timed(health_t, spans_, "ftl.collect_health",
        [&] { inner_.collect_health(out); });
}

// ---- TimedSink -------------------------------------------------------------

TimedSink::TimedSink(esp::telemetry::Telemetry& inner, SpanRecorder* spans)
    : inner_(inner), spans_(spans) {
  std::uint32_t mask = 0;
  for (std::size_t k = 0; k < esp::telemetry::kOpKindCount; ++k)
    if (inner.wants_op(static_cast<esp::telemetry::OpKind>(k)))
      mask |= 1u << k;
  set_op_mask(mask);
}

void TimedSink::record_op(const esp::telemetry::OpEvent& event) {
  timed(ops, spans_, "telemetry.record_op",
        [&] { inner_.record_op(event); });
}

void TimedSink::push_cause(esp::telemetry::Cause cause, std::uint64_t detail,
                           SimTime at) {
  timed(causes, nullptr, "",
        [&] { inner_.push_cause(cause, detail, at); });
}

void TimedSink::pop_cause() {
  timed(causes, nullptr, "", [&] { inner_.pop_cause(); });
}

void TimedSink::record_block(const esp::telemetry::BlockLifecycleEvent& event) {
  timed(blocks, spans_, "telemetry.record_block",
        [&] { inner_.record_block(event); });
}

}  // namespace perfbench
