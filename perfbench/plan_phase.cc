// plan_big: the paper's Table 3 Big Case (N = 500,000, B = 250,000).
//
// Each round times two exact PF plans and two partitioned PF plans (PF key,
// K = 50, 5 k-means iterations, FBA) through FreshenPlanner::Plan, then
// lets an incremental DeltaReplanner absorb steps of 0.1% uniform churn
// for the rest of the round. Only the opt and partition layers run here;
// nothing in serve or mirror does.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/planner.h"
#include "obs/metrics.h"
#include "opt/delta_replan.h"
#include "opt/problem.h"
#include "opt/water_filling.h"
#include "phases.h"
#include "rng/rng.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace perfbench {

using freshen::ElementSet;
using freshen::FreshenPlan;
using freshen::FreshenPlanner;
using freshen::PlannerOptions;

namespace {

constexpr int kSetupReps = 3;
constexpr int kPlansPerRound = 2;
constexpr size_t kChurnPerStep = 500;  // 0.1% of N.

// Budget met to roundoff and every frequency finite and non-negative.
bool Feasible(const std::vector<double>& frequencies, double bandwidth,
              double used) {
  for (double f : frequencies) {
    if (!(f >= 0.0) || !std::isfinite(f)) return false;
  }
  return std::abs(used - bandwidth) <= 1e-9 * bandwidth;
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

template <typename F>
double MedianOf(const std::vector<freshen::PlanTimings>& timings, F field) {
  std::vector<double> values;
  for (const freshen::PlanTimings& t : timings) values.push_back(field(t));
  return Median(values);
}

// One batch of uniform churn: `count` random elements get new weight and
// change rate, each scaled by a factor in [0.8, 1.25).
std::vector<freshen::ElementUpdate> ChurnBatch(
    const freshen::CoreProblem& problem, size_t count, freshen::Rng* rng) {
  std::vector<freshen::ElementUpdate> updates;
  updates.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    const size_t i = rng->NextUint64Below(problem.size());
    updates.push_back({i, problem.weights[i] * rng->NextDoubleIn(0.8, 1.25),
                       problem.change_rates[i] * rng->NextDoubleIn(0.8, 1.25),
                       problem.costs[i]});
  }
  return updates;
}

class PlanBig final : public Phase {
 public:
  PlanBig(const RunConfig& config, double round_seconds, SpanLog* spans,
          Report* report)
      : config_(config),
        round_seconds_(round_seconds),
        spans_(spans != nullptr ? spans->NewBuffer() : nullptr),
        report_(report),
        rng_(PhaseSeed(config.seed, 32)) {
    partitioned_.mode = freshen::PlanMode::kPartitioned;
    partitioned_.partition_key = freshen::PartitionKey::kPerceivedFreshness;
    partitioned_.num_partitions = 50;
    partitioned_.kmeans_iterations = 5;
    partitioned_.allocation_policy =
        freshen::AllocationPolicy::kFixedBandwidth;
  }

  double SetUp() override;
  void Round(int round) override;
  void Finish() override;

 private:
  // One timed Plan: feasible, and byte-identical to the first plan of its
  // kind.
  void TimePlan(const char* label, const PlannerOptions& options,
                FreshenPlan* first, std::vector<double>* seconds);
  // One churn step: Replan + MaterializeFrequencies.
  void DeltaStep();
  // Compares the replanner's current plan with a cold solve.
  void CheckDeltaAgainstCold(const char* when);

  const RunConfig config_;
  const double round_seconds_;
  SpanBuffer* const spans_;
  Report* const report_;
  freshen::Rng rng_;
  double bandwidth_ = 0.0;
  double setup_seconds_ = 0.0;
  ElementSet catalog_;
  PlannerOptions exact_;
  PlannerOptions partitioned_;
  std::unique_ptr<freshen::DeltaReplanner> replanner_;
  freshen::obs::MetricsRegistry registry_;
  const freshen::KktWaterFillingSolver cold_solver_;

  FreshenPlan first_exact_, first_partitioned_;
  std::vector<double> exact_s_, partitioned_s_;
  std::vector<freshen::PlanTimings> partitioned_timings_;
  std::vector<double> step_ms_, replan_ms_, materialize_ms_, probes_;
  std::vector<double> cold_solve_s_;  // Traced runs only.
  int cold_probes_ = 0;
  uint64_t paths_[3] = {0, 0, 0};
  std::vector<double> frequencies_;
};

double PlanBig::SetUp() {
  freshen::ExperimentSpec spec = freshen::ExperimentSpec::BigCase();
  spec.seed = PhaseSeed(config_.seed, 31);
  bandwidth_ = spec.syncs_per_period;
  // Set-up is catalog generation, repeated.
  std::vector<double> seconds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = NowSeconds();
    catalog_ = freshen::GenerateCatalog(spec).value();
    const double t1 = NowSeconds();
    seconds.push_back(t1 - t0);
    if (spans_ != nullptr) spans_->Add("setup.catalog", t0, t1);
  }
  setup_seconds_ = Median(seconds);
  report_->Info("plan_big.N", std::to_string(catalog_.size()));
  report_->Info("plan_big.B", StrCat(bandwidth_));

  freshen::DeltaReplanner::Options options;
  options.registry = &registry_;
  auto created = freshen::DeltaReplanner::Create(
      freshen::MakePerceivedProblem(catalog_, bandwidth_), options);
  report_->Check(created.ok(), "plan_big: DeltaReplanner::Create failed");
  if (created.ok()) replanner_ = std::move(created).value();
  return setup_seconds_;
}

void PlanBig::TimePlan(const char* label, const PlannerOptions& options,
                       FreshenPlan* first, std::vector<double>* seconds) {
  const double t0 = NowSeconds();
  auto plan = FreshenPlanner(options).Plan(catalog_, bandwidth_);
  const double t1 = NowSeconds();
  ++report_->attempted;
  if (!plan.ok()) {
    ++report_->failed;
    report_->Check(false, StrCat("plan_big: ", label, " plan failed: ",
                                 plan.status().ToString()));
    return;
  }
  if (spans_ != nullptr) spans_->Add(label, t0, t1);
  const bool feasible =
      Feasible(plan->frequencies, bandwidth_, plan->bandwidth_used);
  report_->Check(feasible, StrCat("plan_big: ", label,
                                  " plan misses the budget or has a negative"
                                  " frequency"));
  if (!feasible) ++report_->failed;
  if (seconds->empty()) {
    *first = *plan;
  } else {
    report_->Check(SameBytes(plan->frequencies, first->frequencies),
                   StrCat("plan_big: ", label, " plan is not deterministic"));
  }
  seconds->push_back(t1 - t0);
  if (options.mode == freshen::PlanMode::kPartitioned) {
    partitioned_timings_.push_back(plan->timings);
  }
}

void PlanBig::DeltaStep() {
  const auto updates =
      ChurnBatch(replanner_->problem(), kChurnPerStep, &rng_);
  const double t0 = NowSeconds();
  auto result = replanner_->Replan(updates);
  const double t1 = NowSeconds();
  ++report_->attempted;
  if (!result.ok()) {
    ++report_->failed;
    report_->Check(false,
                   "plan_big: Replan failed: " + result.status().ToString());
    return;
  }
  replanner_->MaterializeFrequencies(&frequencies_);
  const double t2 = NowSeconds();
  if (spans_ != nullptr) {
    const uint64_t parent = spans_->Add("opt.delta_step", t0, t2);
    spans_->Add("opt.delta_replan", t0, t1, parent);
    spans_->Add("opt.materialize", t1, t2, parent);
  }
  step_ms_.push_back((t2 - t0) * 1e3);
  replan_ms_.push_back((t1 - t0) * 1e3);
  materialize_ms_.push_back((t2 - t1) * 1e3);
  probes_.push_back(result->probes);
  ++paths_[static_cast<int>(result->path)];
}

void PlanBig::CheckDeltaAgainstCold(const char* when) {
  auto cold = cold_solver_.Solve(replanner_->problem());
  report_->Check(cold.ok() && SameBytes(cold->frequencies, frequencies_),
                 StrCat("plan_big: delta plan ", when,
                        " differs from a cold solve"));
  report_->Check(Feasible(frequencies_, bandwidth_,
                          replanner_->problem().Spend(frequencies_)),
                 StrCat("plan_big: delta plan ", when, " is infeasible"));
}

void PlanBig::Round(int round) {
  if (replanner_ == nullptr) return;
  const double start = NowSeconds();
  const size_t first_exact = exact_s_.size();
  const size_t first_partitioned = partitioned_s_.size();
  for (int rep = 0; rep < kPlansPerRound; ++rep) {
    TimePlan("plan.exact", exact_, &first_exact_, &exact_s_);
    TimePlan("plan.partitioned", partitioned_, &first_partitioned_,
             &partitioned_s_);
  }
  if (config_.trace) {
    // The cold solve alone, outside the planner, beside the exact plans it
    // is compared with (plan.overhead_s).
    const freshen::CoreProblem problem =
        freshen::MakePerceivedProblem(catalog_, bandwidth_);
    const double t0 = NowSeconds();
    auto allocation = cold_solver_.Solve(problem);
    const double t1 = NowSeconds();
    report_->Check(allocation.ok(), "plan_big: cold solve failed");
    if (allocation.ok()) cold_probes_ = allocation->iterations;
    if (spans_ != nullptr) spans_->Add("opt.cold_solve", t0, t1);
    cold_solve_s_.push_back(t1 - t0);
  }
  // Delta steps fill the rest of the round (at least two).
  const size_t first_step = step_ms_.size();
  for (int step = 0;
       step < 2 || NowSeconds() - start < round_seconds_; ++step) {
    DeltaStep();
    // The first step is checked byte-for-byte against a cold solve of the
    // same updated problem, outside the timed calls.
    if (round == 0 && step == 0) CheckDeltaAgainstCold("after one step");
  }
  auto list = [](const std::vector<double>& values, size_t from) {
    std::string text;
    for (size_t k = from; k < values.size(); ++k) {
      text += StrCat(" ", values[k]);
    }
    return text;
  };
  const std::string exact = list(exact_s_, first_exact);
  const std::string partitioned = list(partitioned_s_, first_partitioned);
  const std::string steps = list(step_ms_, first_step);
  std::printf("  plan_big round %d: exact s:%s partitioned s:%s delta step "
              "ms:%s\n",
              round, exact.c_str(), partitioned.c_str(), steps.c_str());
}

void PlanBig::Finish() {
  if (replanner_ == nullptr) return;
  CheckDeltaAgainstCold(StrCat("after ", step_ms_.size(), " steps").c_str());
  // Each timing repeats one deterministic computation, and interference
  // from other tenants of a shared host only ever adds time, in bursts of
  // a few seconds. The lower quartile over the repetitions sets the bursts
  // aside while still resting on a quarter of the samples.
  const double exact_s = Percentile(exact_s_, 0.25);
  report_->EndToEnd("plan_big.plan_exact_s", exact_s, "s");
  report_->EndToEnd("plan_big.plan_partitioned_s",
                    Percentile(partitioned_s_, 0.25), "s");
  report_->EndToEnd("plan_big.partitioned_pf_ratio",
                    first_exact_.perceived_freshness > 0.0
                        ? first_partitioned_.perceived_freshness /
                              first_exact_.perceived_freshness
                        : 0.0,
                    "ratio");
  report_->EndToEnd("plan_big.replan_warm_ms", Percentile(step_ms_, 0.25),
                    "ms");
  report_->Info("plan_big.exact_pf", StrCat(first_exact_.perceived_freshness));
  report_->Info("plan_big.partitioned_pf",
                StrCat(first_partitioned_.perceived_freshness));
  report_->Info("plan_big.plans", StrCat(exact_s_.size(), " exact, ",
                                         partitioned_s_.size(),
                                         " partitioned"));
  report_->Info("plan_big.delta_steps",
                StrCat(step_ms_.size(), " (pinned/warm/full ", paths_[0], "/",
                       paths_[1], "/", paths_[2], ")"));

  if (config_.trace) {
    const double solve_s = Percentile(cold_solve_s_, 0.25);
    report_->Layer("opt.cold_solve_s", solve_s, "s");
    report_->Layer("opt.cold_probes", cold_probes_, "count");
    report_->Layer("plan.overhead_s", exact_s - solve_s, "s");

    // A tail-churn step set: halving the weight of elements the plan
    // already leaves unfunded cannot move the multiplier, so these steps
    // take the pinned path.
    std::vector<size_t> unfunded;
    for (size_t i = 0; i < frequencies_.size(); ++i) {
      if (frequencies_[i] == 0.0) unfunded.push_back(i);
    }
    std::vector<double> pinned_us;
    for (size_t step = 0; step < 10 && !unfunded.empty(); ++step) {
      const freshen::CoreProblem& now = replanner_->problem();
      std::vector<freshen::ElementUpdate> updates;
      for (size_t j = 0; j < 50; ++j) {
        const size_t i = unfunded[(step * 50 + j) % unfunded.size()];
        updates.push_back(
            {i, now.weights[i] * 0.5, now.change_rates[i], now.costs[i]});
      }
      auto result = replanner_->Replan(updates);
      if (result.ok() && result->path == freshen::ReplanPath::kPinned) {
        pinned_us.push_back(result->replan_seconds * 1e6);
      }
    }
    report_->Layer("opt.pinned_replan_us", Median(pinned_us), "us");
    double probe_sum = 0.0;
    for (double p : probes_) probe_sum += p;
    report_->Layer("opt.warm_probes",
                   probes_.empty() ? 0.0 : probe_sum / probes_.size(),
                   "count");
    report_->Layer("opt.warm_replan_ms", Median(replan_ms_), "ms");
    report_->Layer("opt.materialize_ms", Median(materialize_ms_), "ms");
    report_->Layer("opt.path_pinned", paths_[0], "count");
    report_->Layer("opt.path_warm", paths_[1], "count");
    report_->Layer("opt.path_full", paths_[2], "count");
    const auto& t = partitioned_timings_;
    report_->Layer("partition.partition_s",
                   MedianOf(t, [](const auto& x) {
                     return x.partition_seconds;
                   }),
                   "s");
    report_->Layer("partition.kmeans_s",
                   MedianOf(t, [](const auto& x) { return x.kmeans_seconds; }),
                   "s");
    report_->Layer("partition.solve_s",
                   MedianOf(t, [](const auto& x) { return x.solve_seconds; }),
                   "s");
    report_->Layer("partition.expand_s",
                   MedianOf(t, [](const auto& x) { return x.expand_seconds; }),
                   "s");
    report_->Layer("plan_big.setup.catalog_s", setup_seconds_, "s");
  }
  replanner_.reset();
}

}  // namespace

std::unique_ptr<Phase> MakePlanBig(const RunConfig& config,
                                   double round_seconds, SpanLog* spans,
                                   Report* report) {
  return std::make_unique<PlanBig>(config, round_seconds, spans, report);
}

}  // namespace perfbench
