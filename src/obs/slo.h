// Scrape-time SLO burn gauges: how hard each serving endpoint is
// burning against its latency (or goodput) objective, derived from the
// registry's own histograms at the moment of the scrape.
//
//   burn = observed_quantile / target        (latency objectives)
//   burn = target / observed_quantile        (goodput objectives)
//
// so burn < 1 is healthy, burn >= 1 means the objective is being
// violated, and the magnitude says by how much. The gauges are written
// only when a scrape asks for them (api::ServerEndpoint::HandleMetrics
// refreshes them before rendering), so the serving writer never pays for
// them; like everything in obs they influence no answers.

#ifndef PMWCM_OBS_SLO_H_
#define PMWCM_OBS_SLO_H_

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace pmw {
namespace obs {

/// One objective: a source histogram, the quantile that the objective
/// constrains, and the target value for it.
struct SloBurnSpec {
  /// Label value of the emitted gauge:
  /// pmw_slo_burn_ratio{endpoint="<endpoint>"}.
  std::string endpoint;
  /// Source histogram name in the same registry.
  std::string histogram;
  /// Quantile the objective constrains (e.g. 0.99 for a p99 target).
  double quantile = 0.99;
  /// Target for that quantile, in the histogram's own unit. Specs with
  /// target <= 0 are skipped (objective not configured).
  double target = 0.0;
  /// False: latency-style, burn = observed / target. True:
  /// goodput-style (bigger is better), burn = target / observed.
  bool higher_is_better = false;
};

/// Recomputes pmw_slo_burn_ratio{endpoint=...} for every configured spec
/// from the registry's current histogram snapshots. A histogram with no
/// samples writes burn 0 — "no evidence of burn", the conservative
/// scrape-side default. An unconfigured spec (target <= 0) is skipped and
/// registers no gauge.
void UpdateSloBurnGauges(Registry* registry,
                         const std::vector<SloBurnSpec>& specs);

}  // namespace obs
}  // namespace pmw

#endif  // PMWCM_OBS_SLO_H_
