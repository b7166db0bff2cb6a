#include "core/observers.h"

#include <filesystem>
#include <stdexcept>

namespace esp::core {

const std::array<ObserverSet::Row, ObserverSet::kStreams> ObserverSet::kRows =
    {{
        {"journal", &ExperimentSpec::journal_path, 0, kSectionJournal},
        {"auditor", nullptr, -1, kSectionAuditor},
        {"health", &ExperimentSpec::health_path, 1, kSectionHealth},
        {"forensics", &ExperimentSpec::forensics_path, 2, kSectionForensics},
    }};

namespace {

bool wanted(const ObserverSet::Row& row, const ExperimentSpec& spec) {
  return row.path != nullptr ? !(spec.*row.path).empty() : spec.audit;
}

/// The hdr fields every sidecar stream shares.
telemetry::StreamHeader stream_header(const ExperimentSpec& spec) {
  const auto& geo = spec.ssd.geometry;
  telemetry::StreamHeader hdr;
  hdr.ftl = ftl_kind_name(spec.ssd.ftl);
  hdr.chips = geo.total_chips();
  hdr.blocks_per_chip = geo.blocks_per_chip;
  hdr.pages_per_block = geo.pages_per_block;
  hdr.subpages_per_page = geo.subpages_per_page;
  hdr.page_bytes = geo.page_bytes;
  hdr.seed = spec.workload.seed;
  hdr.shard = spec.shard_index;
  hdr.shards = spec.shard_count;
  return hdr;
}

}  // namespace

telemetry::TelemetryConfig ObserverSet::lean_config() {
  telemetry::TelemetryConfig cfg;
  cfg.trace_capacity = 256;
  cfg.op_detail = false;
  return cfg;
}

ObserverSet::ObserverSet(const ExperimentSpec& spec,
                         const SnapshotMeta* resume)
    : tel_(spec.telemetry), resume_stream_(resume != nullptr) {
  bool any = false;
  for (std::size_t i = 0; i < kStreams; ++i) {
    const Row& row = kRows[i];
    if (!wanted(row, spec)) continue;
    if (row.path != nullptr) {
      const std::string& path = spec.*row.path;
      resumed_[i] = resume != nullptr && resume->has[row.section] &&
                    resume->sidecar_offset[row.offset_slot] !=
                        SnapshotMeta::kNoSidecar;
      if (resumed_[i]) {
        std::error_code ec;
        std::filesystem::resize_file(
            path, resume->sidecar_offset[row.offset_slot], ec);
        if (ec)
          throw std::runtime_error(std::string("cannot truncate ") +
                                   row.name + " sidecar for resume: " + path +
                                   ": " + ec.message());
      }
      sidecars_[i].open(path, std::ios::out | std::ios::binary |
                                  (resumed_[i] ? std::ios::app
                                               : std::ios::trunc));
      if (!sidecars_[i])
        throw std::runtime_error(std::string("cannot open ") + row.name +
                                 " sidecar: " + path);
    }
    create(i, spec);
    any = true;
  }
  if (!any) return;
  if (tel_ == nullptr) tel_ = &owned_tel_.emplace(lean_config());
  attach(true);
}

void ObserverSet::create(std::size_t i, const ExperimentSpec& spec) {
  const telemetry::StreamHeader hdr = stream_header(spec);
  std::ostream& os = sidecars_[i];
  switch (kRows[i].section) {
    case kSectionJournal:
      parts_[i] = snapshot_part(
          &journal_.emplace(os, hdr, spec.journal_max_events, resumed_[i]));
      break;
    case kSectionAuditor:
      parts_[i] = snapshot_part(&auditor_.emplace(telemetry::AuditorConfig{
          hdr.chips, hdr.blocks_per_chip, hdr.pages_per_block,
          hdr.subpages_per_page}));
      break;
    case kSectionHealth: {
      telemetry::HealthHeader health_hdr;
      static_cast<telemetry::StreamHeader&>(health_hdr) = hdr;
      health_hdr.interval_us = spec.health_interval_us;
      health_hdr.rated_pe = spec.health_rated_pe;
      parts_[i] = snapshot_part(&health_.emplace(os, health_hdr, resumed_[i]));
      break;
    }
    case kSectionForensics: {
      telemetry::ForensicsCollector::Config cfg;
      cfg.top_k = spec.forensics_top;
      cfg.audit = spec.audit;
      cfg.tenant_hists = spec.tenants.size() > 1;
      parts_[i] = snapshot_part(&forensics_.emplace(os, hdr, cfg, resumed_[i]));
      break;
    }
    default:
      throw std::logic_error("ObserverSet: row without an observer");
  }
}

ObserverSet::~ObserverSet() {
  if (tel_ != nullptr) attach(false);
}

void ObserverSet::attach(bool on) {
  const auto ptr = [on](auto& observer) {
    return on && observer ? &*observer : nullptr;
  };
  tel_->set_journal(ptr(journal_));
  tel_->set_auditor(ptr(auditor_));
  tel_->set_health(ptr(health_));
  tel_->set_forensics(ptr(forensics_));
}

void ObserverSet::checkpoint(SnapshotMeta& meta) {
  for (std::size_t i = 0; i < kStreams; ++i) {
    if (!sidecars_[i].is_open()) continue;
    sidecars_[i].flush();
    meta.sidecar_offset[kRows[i].offset_slot] =
        static_cast<std::uint64_t>(sidecars_[i].tellp());
  }
}

SnapshotParts ObserverSet::snapshot_parts(bool restoring) const {
  SnapshotParts parts;
  if (!restoring || resume_stream_)
    parts[kSectionTelemetry] = snapshot_part(tel_);
  for (std::size_t i = 0; i < kStreams; ++i)
    if (!restoring || kRows[i].path == nullptr || resumed_[i])
      parts[kRows[i].section] = parts_[i];
  return parts;
}

void ObserverSet::finish(RunResult& result) {
  if (tel_) result.trace_dropped = tel_->trace().dropped();
  if (journal_) {
    journal_->finish();
    result.journal_events = journal_->events_written();
    result.journal_truncated = journal_->truncated();
  }
  if (health_) {
    health_->finish();
    result.health_epochs = health_->epochs_written();
    result.health_lines = health_->lines_written();
  }
  if (forensics_) {
    forensics_->finish();
    result.forensics_requests = forensics_->requests();
    result.forensics_exemplars = forensics_->exemplars_retained();
    result.forensics_truncated = forensics_->truncated();
    result.tenant_blame = forensics_->tenant_blame();
  }
}

void ObserverSet::rename_sidecars(
    ExperimentSpec& spec,
    const std::function<std::string(const std::string&)>& rename) {
  for (const Row& row : kRows)
    if (row.path != nullptr && !(spec.*row.path).empty())
      spec.*row.path = rename(spec.*row.path);
}

void ObserverSet::concat_shards(const ExperimentSpec& spec,
                                const std::vector<ExperimentSpec>& leaves) {
  for (const Row& row : kRows) {
    if (row.path == nullptr || (spec.*row.path).empty()) continue;
    const std::string& dest = spec.*row.path;
    std::ofstream os(dest, std::ios::out | std::ios::trunc | std::ios::binary);
    if (!os) throw std::runtime_error("cannot open " + dest);
    for (const ExperimentSpec& leaf : leaves) {
      std::ifstream is(leaf.*row.path, std::ios::in | std::ios::binary);
      if (!is) throw std::runtime_error("cannot read " + leaf.*row.path);
      os << is.rdbuf();
    }
  }
}

}  // namespace esp::core
