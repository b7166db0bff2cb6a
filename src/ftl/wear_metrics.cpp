#include "ftl/wear_metrics.h"

#include <cstdio>

#include "util/stats.h"

namespace esp::ftl {

std::string WearSummary::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "P/E min=%u max=%u mean=%.1f stddev=%.2f (imbalance %.3f), "
                "%llu erases total",
                min_pe, max_pe, mean_pe, stddev_pe, imbalance(),
                static_cast<unsigned long long>(total_erases));
  return buf;
}

WearSummary measure_wear(const nand::NandDevice& dev) {
  const auto& geo = dev.geometry();
  util::RunningStats stats;
  for (std::uint32_t chip = 0; chip < geo.total_chips(); ++chip)
    for (std::uint32_t blk = 0; blk < geo.blocks_per_chip; ++blk)
      stats.add(static_cast<double>(dev.pe_cycles(chip, blk)));

  WearSummary summary;
  summary.min_pe = static_cast<std::uint32_t>(stats.min());
  summary.max_pe = static_cast<std::uint32_t>(stats.max());
  summary.mean_pe = stats.mean();
  summary.stddev_pe = stats.stddev();
  summary.total_erases = dev.counters().erases;
  return summary;
}

}  // namespace esp::ftl
