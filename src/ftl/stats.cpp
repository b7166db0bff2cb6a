#include "ftl/types.h"

#include "nand/address.h"
#include "telemetry/metrics.h"

namespace esp::ftl {

FtlStats stats_delta(const FtlStats& after, const FtlStats& before) {
  FtlStats d;
  d.host_write_requests = after.host_write_requests - before.host_write_requests;
  d.host_read_requests = after.host_read_requests - before.host_read_requests;
  d.host_write_sectors = after.host_write_sectors - before.host_write_sectors;
  d.host_read_sectors = after.host_read_sectors - before.host_read_sectors;
  d.flash_prog_full = after.flash_prog_full - before.flash_prog_full;
  d.flash_prog_sub = after.flash_prog_sub - before.flash_prog_sub;
  d.flash_reads = after.flash_reads - before.flash_reads;
  d.flash_erases = after.flash_erases - before.flash_erases;
  d.rmw_ops = after.rmw_ops - before.rmw_ops;
  d.gc_invocations = after.gc_invocations - before.gc_invocations;
  d.gc_copy_sectors = after.gc_copy_sectors - before.gc_copy_sectors;
  d.forward_migrations = after.forward_migrations - before.forward_migrations;
  d.cold_evictions = after.cold_evictions - before.cold_evictions;
  d.retention_evictions =
      after.retention_evictions - before.retention_evictions;
  d.wear_level_relocations =
      after.wear_level_relocations - before.wear_level_relocations;
  d.buffer_hits = after.buffer_hits - before.buffer_hits;
  d.read_failures = after.read_failures - before.read_failures;
  d.small_write_requests =
      after.small_write_requests - before.small_write_requests;
  d.small_write_bytes = after.small_write_bytes - before.small_write_bytes;
  d.small_service_flash_bytes =
      after.small_service_flash_bytes - before.small_service_flash_bytes;
  d.small_extra_flash_bytes =
      after.small_extra_flash_bytes - before.small_extra_flash_bytes;
  d.maint_retention_calls =
      after.maint_retention_calls - before.maint_retention_calls;
  d.maint_retention_ns = after.maint_retention_ns - before.maint_retention_ns;
  d.maint_wear_level_calls =
      after.maint_wear_level_calls - before.maint_wear_level_calls;
  d.maint_wear_level_ns =
      after.maint_wear_level_ns - before.maint_wear_level_ns;
  d.maint_release_idle_calls =
      after.maint_release_idle_calls - before.maint_release_idle_calls;
  d.maint_release_idle_ns =
      after.maint_release_idle_ns - before.maint_release_idle_ns;
  d.maint_gc_ns = after.maint_gc_ns - before.maint_gc_ns;
  return d;
}

FtlStats stats_sum(const FtlStats& a, const FtlStats& b) {
  FtlStats s;
  s.host_write_requests = a.host_write_requests + b.host_write_requests;
  s.host_read_requests = a.host_read_requests + b.host_read_requests;
  s.host_write_sectors = a.host_write_sectors + b.host_write_sectors;
  s.host_read_sectors = a.host_read_sectors + b.host_read_sectors;
  s.flash_prog_full = a.flash_prog_full + b.flash_prog_full;
  s.flash_prog_sub = a.flash_prog_sub + b.flash_prog_sub;
  s.flash_reads = a.flash_reads + b.flash_reads;
  s.flash_erases = a.flash_erases + b.flash_erases;
  s.rmw_ops = a.rmw_ops + b.rmw_ops;
  s.gc_invocations = a.gc_invocations + b.gc_invocations;
  s.gc_copy_sectors = a.gc_copy_sectors + b.gc_copy_sectors;
  s.forward_migrations = a.forward_migrations + b.forward_migrations;
  s.cold_evictions = a.cold_evictions + b.cold_evictions;
  s.retention_evictions = a.retention_evictions + b.retention_evictions;
  s.wear_level_relocations =
      a.wear_level_relocations + b.wear_level_relocations;
  s.buffer_hits = a.buffer_hits + b.buffer_hits;
  s.read_failures = a.read_failures + b.read_failures;
  s.small_write_requests = a.small_write_requests + b.small_write_requests;
  s.small_write_bytes = a.small_write_bytes + b.small_write_bytes;
  s.small_service_flash_bytes =
      a.small_service_flash_bytes + b.small_service_flash_bytes;
  s.small_extra_flash_bytes =
      a.small_extra_flash_bytes + b.small_extra_flash_bytes;
  s.maint_retention_calls = a.maint_retention_calls + b.maint_retention_calls;
  s.maint_retention_ns = a.maint_retention_ns + b.maint_retention_ns;
  s.maint_wear_level_calls =
      a.maint_wear_level_calls + b.maint_wear_level_calls;
  s.maint_wear_level_ns = a.maint_wear_level_ns + b.maint_wear_level_ns;
  s.maint_release_idle_calls =
      a.maint_release_idle_calls + b.maint_release_idle_calls;
  s.maint_release_idle_ns = a.maint_release_idle_ns + b.maint_release_idle_ns;
  s.maint_gc_ns = a.maint_gc_ns + b.maint_gc_ns;
  return s;
}

MaintenanceTimer::MaintenanceTimer(FtlStats& stats, std::uint64_t* calls,
                                   std::uint64_t* ns)
    : stats_(stats), ns_(ns), outer_(stats.maint_timer_depth == 0) {
  ++stats_.maint_timer_depth;
  if (!outer_) return;
  if (calls) ++*calls;
  start_ = std::chrono::steady_clock::now();
}

MaintenanceTimer::~MaintenanceTimer() {
  --stats_.maint_timer_depth;
  if (!outer_ || !ns_) return;
  *ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

namespace {

/// Applies fn(field) to every FtlStats counter in declaration order, so the
/// save and load sides cannot drift apart.
template <typename Stats, typename Fn>
void for_each_stat(Stats& s, Fn&& fn) {
  fn(s.host_write_requests);
  fn(s.host_read_requests);
  fn(s.host_write_sectors);
  fn(s.host_read_sectors);
  fn(s.flash_prog_full);
  fn(s.flash_prog_sub);
  fn(s.flash_reads);
  fn(s.flash_erases);
  fn(s.rmw_ops);
  fn(s.gc_invocations);
  fn(s.gc_copy_sectors);
  fn(s.forward_migrations);
  fn(s.cold_evictions);
  fn(s.retention_evictions);
  fn(s.wear_level_relocations);
  fn(s.buffer_hits);
  fn(s.read_failures);
  fn(s.small_write_requests);
  fn(s.small_write_bytes);
  fn(s.small_service_flash_bytes);
  fn(s.small_extra_flash_bytes);
  fn(s.maint_retention_calls);
  fn(s.maint_retention_ns);
  fn(s.maint_wear_level_calls);
  fn(s.maint_wear_level_ns);
  fn(s.maint_release_idle_calls);
  fn(s.maint_release_idle_ns);
  fn(s.maint_gc_ns);
}

}  // namespace

void save_stats(util::StateWriter& w, const FtlStats& s) {
  w.tag("STAT");
  // The maint_*_ns counters time this host, not the simulated device:
  // they are archived as zero so the snapshot bytes are a function of
  // simulated state alone.
  FtlStats sim = s;
  sim.maint_retention_ns = 0;
  sim.maint_wear_level_ns = 0;
  sim.maint_release_idle_ns = 0;
  sim.maint_gc_ns = 0;
  for_each_stat(sim, [&](const std::uint64_t& f) { w.u64(f); });
}

void load_stats(util::StateReader& r, FtlStats& s) {
  r.tag("STAT");
  for_each_stat(s, [&](std::uint64_t& f) { f = r.u64(); });
  s.maint_timer_depth = 0;
}

void bind_stats(telemetry::MetricsRegistry& registry, const std::string& scope,
                const FtlStats& stats) {
  const auto bind = [&](const char* field, const std::uint64_t& src) {
    registry.bind_counter(scope + "/" + field, &src);
  };
  bind("host_write_requests", stats.host_write_requests);
  bind("host_read_requests", stats.host_read_requests);
  bind("host_write_sectors", stats.host_write_sectors);
  bind("host_read_sectors", stats.host_read_sectors);
  bind("flash_prog_full", stats.flash_prog_full);
  bind("flash_prog_sub", stats.flash_prog_sub);
  bind("flash_reads", stats.flash_reads);
  bind("flash_erases", stats.flash_erases);
  bind("rmw_ops", stats.rmw_ops);
  bind("gc_invocations", stats.gc_invocations);
  bind("gc_copy_sectors", stats.gc_copy_sectors);
  bind("forward_migrations", stats.forward_migrations);
  bind("cold_evictions", stats.cold_evictions);
  bind("retention_evictions", stats.retention_evictions);
  bind("wear_level_relocations", stats.wear_level_relocations);
  bind("buffer_hits", stats.buffer_hits);
  bind("read_failures", stats.read_failures);
  bind("small_write_requests", stats.small_write_requests);
  bind("small_write_bytes", stats.small_write_bytes);
  bind("small_service_flash_bytes", stats.small_service_flash_bytes);
  bind("small_extra_flash_bytes", stats.small_extra_flash_bytes);
}

void save_validity_bits(util::StateWriter& w,
                        const std::vector<std::uint64_t>& reverse_map) {
  w.pod_vec_of<std::uint8_t>(reverse_map.size(), [&](std::size_t i) {
    return reverse_map[i] != nand::kUnmapped;
  });
}

void load_validity_bits(util::StateReader& r,
                        const std::vector<std::uint64_t>& reverse_map,
                        const char* owner) {
  r.pod_vec_into<std::uint8_t>(
      reverse_map.size(), [&](std::size_t i, std::uint8_t bit) {
        if ((bit != 0) != (reverse_map[i] != nand::kUnmapped))
          throw std::runtime_error(
              std::string(owner) +
              "::load_state: archived valid bit disagrees with the reverse "
              "map");
      });
}

}  // namespace esp::ftl
