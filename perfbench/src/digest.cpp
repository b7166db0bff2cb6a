#include "digest.h"

namespace perfbench {

void Fnv64::add(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

namespace {

void add_hist(Fnv64& h, const esp::util::Histogram& hist) {
  h.u64(hist.total());
  h.u64(hist.underflow());
  h.u64(hist.overflow());
  for (std::size_t i = 0; i < hist.bucket_count(); ++i) h.u64(hist.bucket(i));
}

void add_stats(Fnv64& h, const esp::ftl::FtlStats& s) {
  for (const std::uint64_t v :
       {s.host_write_requests, s.host_read_requests, s.host_write_sectors,
        s.host_read_sectors, s.flash_prog_full, s.flash_prog_sub,
        s.flash_reads, s.flash_erases, s.rmw_ops, s.gc_invocations,
        s.gc_copy_sectors, s.forward_migrations, s.cold_evictions,
        s.retention_evictions, s.wear_level_relocations, s.buffer_hits,
        s.read_failures, s.small_write_requests, s.small_write_bytes,
        s.small_service_flash_bytes, s.small_extra_flash_bytes,
        s.maint_retention_calls, s.maint_wear_level_calls,
        s.maint_release_idle_calls})
    h.u64(v);
}

}  // namespace

std::uint64_t sim_digest(const esp::core::RunResult& r) {
  Fnv64 h;
  if (!r.shard_results.empty()) {
    for (const esp::core::RunResult& s : r.shard_results)
      h.u64(sim_digest(s));
    return h.value();
  }
  const esp::sim::RunMetrics& m = r.raw;
  for (const std::uint64_t v :
       {m.requests, m.write_requests, m.read_requests, m.verify_failures,
        m.io_errors, m.device_erases, m.erases_during_run})
    h.u64(v);
  h.f64(m.start_us);
  h.f64(m.end_us);
  add_hist(h, m.latency_hist);
  add_hist(h, m.response_hist);
  add_stats(h, m.ftl_stats);
  for (const double v :
       {r.chip_util_min, r.chip_util_mean, r.chip_util_max,
        r.channel_util_min, r.channel_util_mean, r.channel_util_max})
    h.f64(v);
  return h.value();
}

}  // namespace perfbench
