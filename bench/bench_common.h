#pragma once

// Shared helpers for the paper-reproduction benches: scale selection,
// Table-I row construction, and campaign configuration.
//
// Every bench honours the one size knob SSRESF_BENCH_SCALE = smoke | quick
// (default) | full. "quick" keeps the whole bench suite in minutes; "full"
// raises the sampling volume for tighter statistics; "smoke" samples like
// quick but trims bench_table3_runtime to its CI throughput matrix.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/ssresf.h"
#include "soc/programs.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/timer.h"

namespace ssresf::bench {

struct BenchScale {
  const char* name;
  double fraction;
  int min_per_cluster;
  int max_per_cluster;
  int memory_macro_draws;
  int cv_folds;
};

inline BenchScale bench_scale() {
  const char* env = std::getenv("SSRESF_BENCH_SCALE");
  const std::string mode = env != nullptr ? env : "";
  if (mode == "full") return {"full", 0.03, 12, 64, 64, 10};
  if (mode == "smoke") return {"smoke", 0.005, 3, 12, 12, 8};
  return {"quick", 0.005, 3, 12, 12, 8};
}

/// Cluster counts (KN) per Table I row, as reported in the paper.
inline int row_clusters(std::size_t row_index) {
  static constexpr int kn[10] = {5, 6, 8, 9, 14, 15, 18, 19, 21, 23};
  return row_index < 10 ? kn[row_index] : 8;
}

/// Builds the SoC for a Table I row, running the ISA-matched composite
/// benchmark workload (light variant: campaign cost stays bounded on the
/// 100k+-cell rows while every ISA extension still executes).
inline soc::SocModel build_row_soc(const soc::SocConfig& config) {
  const auto core_cfg = soc::CoreConfig::from_isa(config.cpu_isa);
  const soc::Workload workload =
      soc::benchmark_workload(core_cfg, /*light=*/true);
  const soc::Program programs[] = {soc::assemble(workload.source)};
  return soc::build_soc(config, programs);
}

inline fi::CampaignConfig row_campaign(std::size_t row_index,
                                       std::uint64_t seed = 2024) {
  const BenchScale scale = bench_scale();
  fi::CampaignConfig cfg;
  cfg.clustering.num_clusters = row_clusters(row_index);
  cfg.sampling.fraction = scale.fraction;
  cfg.sampling.min_per_cluster = scale.min_per_cluster;
  cfg.sampling.max_per_cluster = scale.max_per_cluster;
  cfg.sampling.memory_macro_draws = scale.memory_macro_draws;
  cfg.environment.flux = 5e8;
  cfg.environment.let = 37.0;
  cfg.seed = seed + row_index;
  return cfg;
}

inline std::string pct(double v) { return util::format("%.2f%%", v); }
inline std::string sci(double v) { return util::format("%.2e", v); }

}  // namespace ssresf::bench
