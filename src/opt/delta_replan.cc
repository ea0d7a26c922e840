#include "opt/delta_replan.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/macros.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "model/freshness_batch.h"
#include "obs/trace.h"
#include "stats/descriptive.h"

namespace freshen {
namespace {

/// Relative guard band around the budget for the pinned-path flip test.
/// The cached edge totals and a fresh evaluation of the same points differ
/// only by compensated-summation jitter (~1e-15 relative); demoting to the
/// warm path whenever an edge total sits within 1e-13 * budget of the
/// budget means that jitter can never flip the pinned decision — at the
/// cost of taking the (always-correct) warm path in the few percent of
/// replans whose flip margin is that thin.
constexpr double kPinnedGuard = 1e-13;

/// Mirror of the evaluator's pricing rule (opt/scan_breakpoint.cc): lane k
/// is funded at mu iff mu * ratio < 1, and its kernel target is clamped to
/// 1e-300. Kept textually in sync so single-lane recomputation lands on the
/// same bits as a full capture.
constexpr double kMinTarget = 1e-300;

/// Batch size for re-inverting dirty lanes (matches the evaluator's block).
constexpr size_t kDirtyBatch = 512;

const std::vector<double>& CountBuckets() {
  static const std::vector<double> buckets = [] {
    std::vector<double> b;
    for (double edge = 1.0; edge <= 1048576.0; edge *= 4.0) b.push_back(edge);
    return b;
  }();
  return buckets;
}

}  // namespace

const char* ToString(ReplanPath path) {
  switch (path) {
    case ReplanPath::kPinned:
      return "pinned";
    case ReplanPath::kWarm:
      return "warm";
    case ReplanPath::kFull:
      return "full";
  }
  return "unknown";
}

DeltaReplanner::DeltaReplanner(CoreProblem problem, Options options)
    : options_(options),
      problem_(std::move(problem)),
      exec_(std::make_unique<par::Executor>(options.threads)) {
  obs::MetricsRegistry& registry = options_.registry != nullptr
                                       ? *options_.registry
                                       : obs::MetricsRegistry::Global();
  replans_pinned_ =
      registry.GetCounter("freshen_replan_total", {{"path", "pinned"}});
  replans_warm_ =
      registry.GetCounter("freshen_replan_total", {{"path", "warm"}});
  replans_full_ =
      registry.GetCounter("freshen_replan_total", {{"path", "full"}});
  dirty_hist_ =
      registry.GetHistogram("freshen_replan_dirty_elements", CountBuckets());
  probes_hist_ =
      registry.GetHistogram("freshen_replan_probes", CountBuckets());
  seconds_hist_ = registry.GetHistogram("freshen_replan_seconds",
                                        obs::LatencySecondsBuckets());
  search_probes_ = MakeSearchProbeCounters(registry, "delta_replan");
}

Result<std::unique_ptr<DeltaReplanner>> DeltaReplanner::Create(
    CoreProblem problem, Options options) {
  FRESHEN_RETURN_IF_ERROR(problem.Validate());
  if (!(options.full_churn_threshold > 0.0)) {
    return Status::InvalidArgument("full_churn_threshold must be positive");
  }
  std::unique_ptr<DeltaReplanner> replanner(
      new DeltaReplanner(std::move(problem), options));
  replanner->FullSolve();
  return replanner;
}

void DeltaReplanner::Compact() {
  // Identical construction to KktWaterFillingSolver::Solve: membership is
  // weight > 0 && rate > 0, ascending original index, same value formulas.
  const size_t n = problem_.size();
  index_.clear();
  ratio_.clear();
  lambda_.clear();
  spend_scale_.clear();
  active_of_.assign(n, 0);
  mu_max_ = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (problem_.weights[i] > 0.0 && problem_.change_rates[i] > 0.0) {
      active_of_[i] = index_.size() + 1;
      index_.push_back(i);
      ratio_.push_back(problem_.costs[i] * problem_.change_rates[i] /
                       problem_.weights[i]);
      lambda_.push_back(problem_.change_rates[i]);
      spend_scale_.push_back(problem_.costs[i] * problem_.change_rates[i]);
      mu_max_ = std::max(mu_max_, 1.0 / ratio_.back());
    }
  }
  // The evaluator aliases the SoA vectors and sizes its plan/warm state at
  // construction, so it must be rebuilt whenever the active set is.
  eval_ = std::make_unique<BreakpointSpendEvaluator>(
      BreakpointSpendEvaluator::Kernel::kFreshnessG, ratio_, lambda_,
      spend_scale_, exec_.get());
}

void DeltaReplanner::FullSolve() {
  Compact();
  const size_t active = index_.size();
  if (active == 0) {
    mu_ = 0.0;
    edge_lo_ = 0.0;
    contrib_lo_.clear();
    contrib_hi_.clear();
    partial_lo_.clear();
    partial_hi_.clear();
    total_lo_ = total_hi_ = 0.0;
    fill_.clear();
    finish_contrib_.clear();
    finish_partials_.clear();
    spend_ = 0.0;
    scale_ = 1.0;
    boundary_index_ = SIZE_MAX;
    boundary_grant_ = 0.0;
    boundary_band_.clear();
    last_probes_ = 0;
    return;
  }
  std::function<void(double, double, std::vector<double>*)> gather =
      [this, active](double lo, double hi, std::vector<double>* band) {
        for (size_t k = 0; k < active; ++k) {
          const double threshold = 1.0 / ratio_[k];
          if (threshold > lo && threshold < hi) band->push_back(threshold);
        }
      };
  const GridSearchResult search = SolveMultiplierCold(
      eval_.get(), problem_.bandwidth, mu_max_,
      MultiplierSearch::kScanBreakpoint, &gather, options_.max_probes);
  search_probes_.Record(search);
  mu_ = search.mu;
  last_probes_ = search.probes;
  RefreshAtMu();
}

bool DeltaReplanner::InBoundaryBand(size_t k) const {
  if (fill_[k] > 0.0) return false;
  return 1.0 / ratio_[k] >= mu_ * (1.0 - 1e-9);
}

void DeltaReplanner::RefreshAtMu() {
  const size_t active = index_.size();
  edge_lo_ = MuLatticePrev(mu_);
  // Cold captures at both flip edges: per-lane pure, so a later single-lane
  // patch reproduces exactly the value a fresh capture would hold.
  eval_->CaptureAt(mu_, &fill_, &contrib_hi_);
  eval_->CaptureAt(edge_lo_, /*frequencies=*/nullptr, &contrib_lo_);
  SpendBlockPartials(contrib_hi_, exec_.get(), &partial_hi_);
  SpendBlockPartials(contrib_lo_, exec_.get(), &partial_lo_);
  total_hi_ = MergeSpendBlockPartials(partial_hi_);
  total_lo_ = MergeSpendBlockPartials(partial_lo_);
  // Finish-spend tree over cost * fill — the cold solver's exact finish
  // arithmetic (opt/water_filling.cc).
  finish_contrib_.resize(active);
  exec_->ForEach(active, [&](size_t k) {
    finish_contrib_[k] = problem_.costs[index_[k]] * fill_[k];
  });
  SpendBlockPartials(finish_contrib_, exec_.get(), &finish_partials_);
  spend_ = MergeSpendBlockPartials(finish_partials_);
  boundary_band_.clear();
  for (size_t k = 0; k < active; ++k) {
    if (InBoundaryBand(k)) boundary_band_.insert({1.0 / ratio_[k], k});
  }
  FinishResidual();
}

void DeltaReplanner::FinishResidual() {
  // Bit-for-bit mirror of the cold solver's residual removal: hand the
  // slack to the boundary element whose zero-frequency marginal is largest
  // (first such element on ties — the band's ordering), else rescale.
  double residual = problem_.bandwidth - spend_;
  boundary_index_ = SIZE_MAX;
  boundary_grant_ = 0.0;
  scale_ = 1.0;
  if (residual > 0.0 && !boundary_band_.empty()) {
    const size_t k = boundary_band_.begin()->second;
    boundary_index_ = index_[k];
    boundary_grant_ = residual / problem_.costs[boundary_index_];
    residual = 0.0;
  }
  if (residual != 0.0 && spend_ > 0.0) {
    scale_ = problem_.bandwidth / spend_;
  }
}

Result<DeltaReplanner::ReplanResult> DeltaReplanner::Replan(
    const std::vector<ElementUpdate>& updates) {
  obs::ScopedSpan span("delta_replan");
  WallTimer timer;

  // Validate the whole batch before mutating anything (appends grow the
  // admissible index range as the batch applies).
  size_t n_after = problem_.size();
  for (const ElementUpdate& u : updates) {
    if (u.index > n_after) {
      return Status::InvalidArgument(
          StrFormat("update index %zu out of range (size %zu)", u.index,
                    n_after));
    }
    if (u.index == n_after) ++n_after;
    if (!(u.weight >= 0.0) || !std::isfinite(u.weight)) {
      return Status::InvalidArgument("update weight negative or non-finite");
    }
    if (!(u.change_rate >= 0.0) || !std::isfinite(u.change_rate)) {
      return Status::InvalidArgument("update rate negative or non-finite");
    }
    if (!(u.cost > 0.0) || !std::isfinite(u.cost)) {
      return Status::InvalidArgument("update cost must be positive, finite");
    }
  }

  // Classify: an append or an active-set membership flip changes the
  // compaction's shape — those force the full path.
  bool structural = false;
  for (const ElementUpdate& u : updates) {
    if (u.index >= problem_.size()) {
      structural = true;
      break;
    }
    const bool was_active = problem_.weights[u.index] > 0.0 &&
                            problem_.change_rates[u.index] > 0.0;
    const bool now_active = u.weight > 0.0 && u.change_rate > 0.0;
    if (was_active != now_active) {
      structural = true;
      break;
    }
  }

  std::vector<size_t> dirty;
  dirty.reserve(updates.size());
  for (const ElementUpdate& u : updates) dirty.push_back(u.index);
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

  ReplanResult result;
  result.dirty = dirty.size();

  auto apply_updates = [&] {
    for (const ElementUpdate& u : updates) {
      if (u.index == problem_.size()) {
        problem_.weights.push_back(u.weight);
        problem_.change_rates.push_back(u.change_rate);
        problem_.costs.push_back(u.cost);
      } else {
        problem_.weights[u.index] = u.weight;
        problem_.change_rates[u.index] = u.change_rate;
        problem_.costs[u.index] = u.cost;
      }
    }
  };

  const size_t active = index_.size();
  std::vector<size_t> dirty_lanes;
  if (!structural) {
    for (size_t i : dirty) {
      if (active_of_[i] != 0) dirty_lanes.push_back(active_of_[i] - 1);
    }
  }

  if (structural ||
      (active > 0 && static_cast<double>(dirty_lanes.size()) >
                         options_.full_churn_threshold *
                             static_cast<double>(active))) {
    apply_updates();
    FullSolve();
    result.path = ReplanPath::kFull;
    result.probes = last_probes_;
    result.all_touched = true;
    touched_.clear();
    replans_full_->Increment();
  } else if (dirty_lanes.empty()) {
    // Only inactive elements changed (and stayed inactive): the solve is
    // untouched. Record the values; the plan is provably byte-unchanged.
    apply_updates();
    result.path = ReplanPath::kPinned;
    result.probes = 0;
    result.all_touched = false;
    touched_.clear();
    last_probes_ = 0;
    replans_pinned_->Increment();
  } else {
    // Value-only churn on active lanes. Evict stale boundary-band entries
    // (membership is judged against pre-update ratio/fill), patch the SoA,
    // then try to prove the flip did not move.
    for (size_t k : dirty_lanes) {
      if (InBoundaryBand(k)) boundary_band_.erase({1.0 / ratio_[k], k});
    }
    apply_updates();
    for (size_t k : dirty_lanes) {
      const size_t i = index_[k];
      ratio_[k] =
          problem_.costs[i] * problem_.change_rates[i] / problem_.weights[i];
      lambda_[k] = problem_.change_rates[i];
      spend_scale_[k] = problem_.costs[i] * problem_.change_rates[i];
    }

    // Re-invert the dirty lanes cold at both cached edges (SIMD batches;
    // per-lane purity makes each value equal to the same lane of a full
    // capture) and fold them into the edge contribution trees.
    const size_t d = dirty_lanes.size();
    std::vector<double> new_fill(d), new_contrib_hi(d), new_contrib_lo(d);
    {
      double target[kDirtyBatch];
      double root[kDirtyBatch];
      bool funded[kDirtyBatch];
      for (int edge = 0; edge < 2; ++edge) {
        const double mu_e = edge == 0 ? mu_ : edge_lo_;
        for (size_t b = 0; b < d; b += kDirtyBatch) {
          const size_t m = std::min(kDirtyBatch, d - b);
          for (size_t j = 0; j < m; ++j) {
            const double y = mu_e * ratio_[dirty_lanes[b + j]];
            funded[j] = y < 1.0;
            target[j] = funded[j] ? std::max(y, kMinTarget) : 0.25;
          }
          BatchInverseMarginalGainG(target, /*seeds=*/nullptr, root, m);
          for (size_t j = 0; j < m; ++j) {
            const size_t k = dirty_lanes[b + j];
            const double contrib =
                funded[j] ? spend_scale_[k] / root[j] : 0.0;
            if (edge == 0) {
              new_contrib_hi[b + j] = contrib;
              new_fill[b + j] = funded[j] ? lambda_[k] / root[j] : 0.0;
            } else {
              new_contrib_lo[b + j] = contrib;
            }
          }
        }
      }
    }
    std::vector<size_t> dirty_blocks;
    dirty_blocks.reserve(d);
    for (size_t j = 0; j < d; ++j) {
      const size_t k = dirty_lanes[j];
      contrib_hi_[k] = new_contrib_hi[j];
      contrib_lo_[k] = new_contrib_lo[j];
      dirty_blocks.push_back(k / kSpendBlock);
    }
    std::sort(dirty_blocks.begin(), dirty_blocks.end());
    dirty_blocks.erase(std::unique(dirty_blocks.begin(), dirty_blocks.end()),
                       dirty_blocks.end());
    exec_->ForEach(dirty_blocks.size(), [&](size_t j) {
      const size_t b = dirty_blocks[j];
      partial_hi_[b] = SpendBlockPartial(contrib_hi_, b);
      partial_lo_[b] = SpendBlockPartial(contrib_lo_, b);
    });
    total_hi_ = MergeSpendBlockPartials(partial_hi_);
    total_lo_ = MergeSpendBlockPartials(partial_lo_);

    const double budget = problem_.bandwidth;
    const bool pinned =
        total_lo_ - budget > kPinnedGuard * budget &&
        budget - total_hi_ > kPinnedGuard * budget;
    if (pinned) {
      // The flip cannot have moved: spend still crosses the budget between
      // the same adjacent lattice points, with margin above any evaluation
      // jitter. mu_ stands; only dirty fills and the finish arithmetic
      // change.
      const double old_scale = scale_;
      const size_t old_boundary = boundary_index_;
      const double old_grant = boundary_grant_;
      touched_.clear();
      for (size_t j = 0; j < d; ++j) {
        const size_t k = dirty_lanes[j];
        if (std::memcmp(&fill_[k], &new_fill[j], sizeof(double)) != 0) {
          touched_.push_back(index_[k]);
        }
        fill_[k] = new_fill[j];
        finish_contrib_[k] = problem_.costs[index_[k]] * fill_[k];
        if (InBoundaryBand(k)) boundary_band_.insert({1.0 / ratio_[k], k});
      }
      exec_->ForEach(dirty_blocks.size(), [&](size_t j) {
        finish_partials_[dirty_blocks[j]] =
            SpendBlockPartial(finish_contrib_, dirty_blocks[j]);
      });
      spend_ = MergeSpendBlockPartials(finish_partials_);
      FinishResidual();
      std::sort(touched_.begin(), touched_.end());
      result.path = ReplanPath::kPinned;
      result.probes = 0;
      result.all_touched =
          !(std::memcmp(&scale_, &old_scale, sizeof(double)) == 0 &&
            boundary_index_ == old_boundary &&
            std::memcmp(&boundary_grant_, &old_grant, sizeof(double)) == 0);
      last_probes_ = 0;
      replans_pinned_->Increment();
    } else {
      // The flip (may have) moved: warm search from the cached flip point.
      // The evaluator's warm seeds are stale for the dirty lanes — hints
      // only; converged probes stay faithful, and the final fill is cold.
      auto spend_at = [this](double mu) { return eval_->SpendAt(mu); };
      const size_t n_active = index_.size();
      std::function<void(double, double, std::vector<double>*)> gather =
          [this, n_active](double lo, double hi, std::vector<double>* band) {
            for (size_t k = 0; k < n_active; ++k) {
              const double threshold = 1.0 / ratio_[k];
              if (threshold > lo && threshold < hi) band->push_back(threshold);
            }
          };
      const GridSearchResult search = SolveMultiplierFromPrevious(
          spend_at, budget, mu_, &gather, options_.max_probes);
      search_probes_.Record(search);
      mu_ = search.mu;
      last_probes_ = search.probes;
      RefreshAtMu();
      result.path = ReplanPath::kWarm;
      result.probes = search.probes;
      result.all_touched = true;
      touched_.clear();
      replans_warm_->Increment();
    }
  }

  result.multiplier = mu_;
  result.replan_seconds = timer.ElapsedSeconds();
  dirty_hist_->Record(static_cast<double>(result.dirty));
  probes_hist_->Record(static_cast<double>(result.probes));
  seconds_hist_->Record(result.replan_seconds);
  return result;
}

void DeltaReplanner::MaterializeFrequencies(
    std::vector<double>* frequencies) const {
  const size_t n = problem_.size();
  frequencies->assign(n, 0.0);
  const size_t active = index_.size();
  const double scale = scale_;
  exec_->ForEach(active, [&](size_t k) {
    // fl(fill * 1.0) == fill, so the no-rescale case is exact; with a
    // rescale this is the cold solver's `frequencies[i] *= scale` (zeros
    // stay +0.0 either way).
    (*frequencies)[index_[k]] = fill_[k] * scale;
  });
  if (boundary_index_ != SIZE_MAX) {
    (*frequencies)[boundary_index_] = boundary_grant_;
  }
}

Allocation DeltaReplanner::MaterializeAllocation() const {
  Allocation out;
  MaterializeFrequencies(&out.frequencies);
  out.multiplier = mu_;
  out.iterations = last_probes_;
  out.objective = problem_.Objective(out.frequencies, exec_.get());
  out.bandwidth_used = index_.empty()
                           ? 0.0
                           : problem_.Spend(out.frequencies, exec_.get());
  out.converged = !index_.empty();
  return out;
}

}  // namespace freshen
