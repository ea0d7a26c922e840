#include "core/planner.h"

#include <cmath>

#include "common/string_util.h"
#include "common/timer.h"
#include "model/metrics.h"
#include "opt/problem.h"
#include "partition/transformed.h"
#include "stats/descriptive.h"

namespace freshen {

std::string ToString(Technique technique) {
  switch (technique) {
    case Technique::kPerceived:
      return "PF_TECHNIQUE";
    case Technique::kGeneral:
      return "GF_TECHNIQUE";
  }
  return "UNKNOWN_TECHNIQUE";
}

Result<FreshenPlan> FreshenPlanner::Plan(const ElementSet& elements,
                                         double bandwidth) const {
  if (elements.empty()) {
    return Status::InvalidArgument("cannot plan for an empty catalog");
  }
  if (!(bandwidth > 0.0) || !std::isfinite(bandwidth)) {
    return Status::InvalidArgument(
        StrFormat("bandwidth must be positive and finite, got %g", bandwidth));
  }
  for (size_t i = 0; i < elements.size(); ++i) {
    const Element& e = elements[i];
    // An infinite size would turn the feasibility spend into inf * 0 = NaN
    // and silently skip the rescale, breaking the always-feasible promise.
    if (!(e.size > 0.0) || !std::isfinite(e.size)) {
      return Status::InvalidArgument(StrFormat(
          "element %zu has non-positive or non-finite size %g", i, e.size));
    }
    // Both modes reject what the exact solver rejects; the partitioned path
    // would otherwise average a negative or NaN p or lambda into a
    // representative and plan from it.
    if (!(e.access_prob >= 0.0) || !std::isfinite(e.access_prob)) {
      return Status::InvalidArgument(StrFormat(
          "element %zu has negative or non-finite access probability %g", i,
          e.access_prob));
    }
    if (!(e.change_rate >= 0.0) || !std::isfinite(e.change_rate)) {
      return Status::InvalidArgument(StrFormat(
          "element %zu has negative or non-finite change rate %g", i,
          e.change_rate));
    }
  }

  WallTimer total_timer;
  FreshenPlan plan;

  auto make_problem = [&](const ElementSet& catalog) {
    return options_.technique == Technique::kPerceived
               ? MakePerceivedProblem(catalog, bandwidth, options_.size_aware)
               : MakeGeneralProblem(catalog, bandwidth, options_.size_aware);
  };

  if (options_.mode == PlanMode::kExact) {
    WallTimer solve_timer;
    FRESHEN_ASSIGN_OR_RETURN(Allocation allocation,
                             solver_.Solve(make_problem(elements)));
    plan.timings.solve_seconds = solve_timer.ElapsedSeconds();
    plan.frequencies = std::move(allocation.frequencies);
  } else {
    // Step 1: sort-based partitioning.
    WallTimer phase_timer;
    FRESHEN_ASSIGN_OR_RETURN(
        std::vector<Partition> partitions,
        BuildPartitions(elements, options_.partition_key,
                        options_.num_partitions,
                        options_.kmeans_options.threads));
    plan.timings.partition_seconds = phase_timer.ElapsedSeconds();

    // Step 1b: optional k-means cleanup.
    if (options_.kmeans_iterations > 0) {
      phase_timer.Restart();
      KMeansRefiner refiner(elements, options_.kmeans_options);
      FRESHEN_ASSIGN_OR_RETURN(
          partitions, refiner.Refine(partitions, options_.kmeans_iterations));
      plan.timings.kmeans_seconds = phase_timer.ElapsedSeconds();
    }
    plan.num_partitions_used = partitions.size();

    // Step 2: solve the Transformed Problem over the representatives.
    phase_timer.Restart();
    CoreProblem transformed =
        BuildTransformedProblem(partitions, bandwidth, options_.size_aware);
    if (options_.technique == Technique::kGeneral) {
      // GF weighs every element equally: partition weight n_j / N.
      const double inv_n = 1.0 / static_cast<double>(elements.size());
      for (size_t j = 0; j < partitions.size(); ++j) {
        transformed.weights[j] =
            static_cast<double>(partitions[j].members.size()) * inv_n;
      }
    }
    FRESHEN_ASSIGN_OR_RETURN(Allocation allocation,
                             solver_.Solve(transformed));
    plan.timings.solve_seconds = phase_timer.ElapsedSeconds();

    // Step 3: expand partition frequencies to element frequencies.
    phase_timer.Restart();
    FRESHEN_ASSIGN_OR_RETURN(
        plan.frequencies,
        ExpandAllocation(elements, partitions, allocation.frequencies,
                         options_.allocation_policy));
    plan.timings.expand_seconds = phase_timer.ElapsedSeconds();
  }

  // Feasibility w.r.t. actual sizes: proportional rescale (no-op whenever
  // the optimization already used the true costs).
  const double spend = BandwidthUsed(elements, plan.frequencies);
  if (spend > 0.0) {
    const double scale = bandwidth / spend;
    for (double& f : plan.frequencies) f *= scale;
  }

  // PerceivedFreshness, GeneralFreshness and BandwidthUsed fused into one
  // pass: each keeps its own Kahan sum fed in index order with the same
  // terms (model/metrics.cc), so every value is bit-identical to the three
  // separate calls, at one freshness evaluation per element instead of two.
  KahanSum perceived;
  KahanSum general;
  KahanSum used;
  for (size_t i = 0; i < elements.size(); ++i) {
    const Element& e = elements[i];
    const double freshness = PolicyFreshness(SyncPolicy::kFixedOrder,
                                             plan.frequencies[i],
                                             e.change_rate);
    perceived.Add(e.access_prob * freshness);
    general.Add(freshness);
    used.Add(e.size * plan.frequencies[i]);
  }
  plan.perceived_freshness = perceived.Total();
  plan.general_freshness =
      general.Total() / static_cast<double>(elements.size());
  plan.bandwidth_used = used.Total();
  plan.timings.total_seconds = total_timer.ElapsedSeconds();
  return plan;
}

}  // namespace freshen
