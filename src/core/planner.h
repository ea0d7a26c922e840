// FreshenPlanner: the library's main entry point. Given a catalog of
// elements (change rates, master-profile access probabilities, sizes) and a
// bandwidth budget, it produces a synchronization-frequency plan using any
// combination the paper studies:
//
//   technique  : Perceived Freshening (PF, the paper) or General Freshening
//                (GF, the prior-work baseline from [5])
//   mode       : exact KKT solve over all N elements, or the scalable
//                partition -> (optional k-means) -> solve -> expand pipeline
//   size model : size-blind (§2) or size-aware (§5) constraint, with FFA or
//                FBA intra-partition allocation
//
// Whatever the optimization mode, the returned plan is always feasible with
// respect to the *actual* object sizes: frequencies are proportionally
// rescaled so sum_i s_i f_i = B. (For equal sizes this is a no-op; for the
// paper's "ignore object size" configuration it is exactly the fairness
// normalization Figure 10's comparison requires.)
#ifndef FRESHEN_CORE_PLANNER_H_
#define FRESHEN_CORE_PLANNER_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "model/element.h"
#include "opt/water_filling.h"
#include "partition/allocation.h"
#include "partition/kmeans.h"
#include "partition/partitioner.h"

namespace freshen {

/// Whose freshness the objective maximizes.
enum class Technique {
  /// Perceived Freshening: weight each element by its access probability.
  kPerceived,
  /// General Freshening: uniform weights (Cho & Garcia-Molina baseline).
  kGeneral,
};

/// Returns "PF_TECHNIQUE" / "GF_TECHNIQUE" (the paper's legend labels).
std::string ToString(Technique technique);

/// Whether to solve over all elements or over partition representatives.
enum class PlanMode {
  kExact,
  kPartitioned,
};

/// Everything configurable about a planning run.
struct PlannerOptions {
  Technique technique = Technique::kPerceived;
  PlanMode mode = PlanMode::kExact;
  /// Partitioned mode: sorting key for the initial partitions.
  PartitionKey partition_key = PartitionKey::kPerceivedFreshness;
  /// Partitioned mode: number of partitions K.
  size_t num_partitions = 50;
  /// Partitioned mode: Lloyd iterations refining the partitions (0 = none).
  int kmeans_iterations = 0;
  /// Options for the k-means refiner. Its `threads` also runs
  /// BuildPartitions' key pass.
  KMeansRefiner::Options kmeans_options;
  /// Partitioned mode: intra-partition allocation policy.
  AllocationPolicy allocation_policy = AllocationPolicy::kFixedBandwidth;
  /// Use the §5 size-aware constraint (sum s_i f_i = B) during optimization.
  bool size_aware = false;
};

/// Per-phase wall-clock breakdown, for the Figure 7-9 timing experiments.
struct PlanTimings {
  double partition_seconds = 0.0;
  double kmeans_seconds = 0.0;
  double solve_seconds = 0.0;
  double expand_seconds = 0.0;
  double total_seconds = 0.0;
};

/// A complete synchronization plan.
struct FreshenPlan {
  /// Sync frequency per element (per period).
  std::vector<double> frequencies;
  /// Analytic perceived freshness sum_i p_i F(f_i, l_i) of the plan.
  double perceived_freshness = 0.0;
  /// Analytic general freshness (1/N) sum_i F(f_i, l_i).
  double general_freshness = 0.0;
  /// Actual bandwidth consumed, sum_i s_i f_i (== budget by construction).
  double bandwidth_used = 0.0;
  /// Partitions actually used (0 in exact mode; can be < requested when
  /// k-means drops empty clusters).
  size_t num_partitions_used = 0;
  /// Phase timings.
  PlanTimings timings;
};

/// Stateless planner; options fixed at construction.
class FreshenPlanner {
 public:
  explicit FreshenPlanner(PlannerOptions options) : options_(options) {}

  /// Plans for the given catalog and per-period bandwidth budget (> 0 and
  /// finite). InvalidArgument for an empty catalog or any element whose
  /// size is not positive and finite, or whose access probability or change
  /// rate is negative or not finite.
  Result<FreshenPlan> Plan(const ElementSet& elements,
                           double bandwidth) const;

  /// The options this planner was built with.
  const PlannerOptions& options() const { return options_; }

 private:
  PlannerOptions options_;
  KktWaterFillingSolver solver_;
};

}  // namespace freshen

#endif  // FRESHEN_CORE_PLANNER_H_
