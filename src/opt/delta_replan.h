// Incremental delta replanning for the freshness water-filling solver.
//
// A cold KktWaterFillingSolver solve is O(N): a binned-surrogate pass, ~7-8
// sharded SIMD spend probes and a full cold fill. A live catalog
// whose lambda/p/s churn continuously cannot afford that every period.
// DeltaReplanner caches the previous solve's state and re-solves an updated
// problem at a cost that scales with how much the answer can actually move:
//
//   * kPinned — the update batch provably left the lattice flip point in
//     place (spend at BOTH cached edge lattice points still brackets the
//     budget, with a guard band). mu* is unchanged by the flip-uniqueness
//     contract (opt/scan_breakpoint.h), clean lanes' cold fills are
//     untouched by per-lane purity, and only the dirty lanes are
//     re-inverted. O(dirty) kernel work + O(dirty + blocks) reduction
//     maintenance — sub-millisecond at N=1M for small batches.
//   * kWarm — the flip moved. The multiplier search restarts from the
//     cached flip point (SolveMultiplierFromPrevious: ~2-4 probes instead
//     of ~7-8 cold) and the allocation is re-derived. O(active) — the
//     honest floor once mu moves, since every funded frequency changes.
//   * kFull — churn exceeded Options::full_churn_threshold, or the update
//     stream changed the problem's structure (append, or an element
//     entering/leaving the active set): recompaction + cold search.
//
// Hard guarantee, enforced in tests/delta_replan_test.cc and bench_replan:
// after any accepted update batch, MaterializeAllocation() is BYTE-IDENTICAL
// (memcmp) to KktWaterFillingSolver (scan mode) solving the updated problem
// from scratch, at every thread count. The pieces that buy this:
//
//   * mu*: the spend predicate's flip on the 36-bit mu lattice is unique
//     across every faithful evaluation path (margin >> evaluation jitter),
//     so warm searches, cached-capture pinned checks, and cold searches all
//     land on the same edge. The pinned check additionally demotes itself
//     to kWarm inside a relative guard band around the budget, so cache-vs-
//     fresh summation jitter can never flip the decision.
//   * fills: always cold-seeded (pure per-lane functions of mu), so a
//     single re-inverted lane equals the same lane of a full cold fill.
//   * residual removal: the cold solver's finish spend runs on the same
//     deterministic block-Kahan tree this class maintains incrementally
//     (SpendBlockPartials), so residual, boundary grant, and rescale
//     arithmetic agree bit-for-bit; the boundary hunt here uses an
//     incrementally-maintained ordered candidate band that provably selects
//     the same element as the cold solver's linear scan.
//
// The allocation is held FACTORED: compact cold fills, one rescale factor,
// and an optional boundary grant. Replan() updates that state (this is the
// sub-millisecond operation the bench gates); MaterializeAllocation() pays
// the O(N) write only when a full frequency vector is actually needed —
// a serving layer can instead read `touched()`/`all_touched()` and
// materialize per shard. See docs/replanning.md for the latency physics.
#ifndef FRESHEN_OPT_DELTA_REPLAN_H_
#define FRESHEN_OPT_DELTA_REPLAN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "opt/problem.h"
#include "opt/scan_breakpoint.h"
#include "opt/solution.h"
#include "opt/solver_metrics.h"

namespace freshen {

/// One element's new values (absolute, not deltas). index == problem size
/// appends a new element (structural: forces a full solve this replan).
/// weight or change_rate of 0 deactivates the element (also structural when
/// it flips membership). Several updates to the same index in one batch
/// apply in order; the last one wins.
struct ElementUpdate {
  size_t index = 0;
  double weight = 0.0;
  double change_rate = 0.0;
  double cost = 1.0;
};

/// Which code path a replan took.
enum class ReplanPath { kPinned, kWarm, kFull };

const char* ToString(ReplanPath path);

/// Incremental re-solver over one evolving CoreProblem.
class DeltaReplanner {
 public:
  struct Options {
    /// Worker threads for sharded work (0 = hardware concurrency). The
    /// result is bit-identical at every thread count.
    size_t threads = 0;
    /// Dirty-active fraction above which Replan() falls back to a full
    /// cold solve (the warm machinery would win nothing).
    double full_churn_threshold = 0.05;
    /// Soft probe cap handed to the multiplier searches.
    int max_probes = 400;
    /// Metrics registry for freshen_replan_* (nullptr = process global).
    obs::MetricsRegistry* registry = nullptr;
  };

  struct ReplanResult {
    ReplanPath path = ReplanPath::kFull;
    /// The (possibly unchanged) flip multiplier after this replan.
    double multiplier = 0.0;
    /// Spend probes this replan issued (0 on the pinned path).
    int probes = 0;
    /// Distinct elements the batch updated.
    size_t dirty = 0;
    /// Replan wall time (state update only; excludes materialization).
    double replan_seconds = 0.0;
    /// True when any element's materialized frequency may have changed
    /// bits. False only when the plan is provably byte-unchanged — then
    /// touched() lists the (possibly empty) set of changed elements.
    bool all_touched = true;
  };

  /// Primes the cache with a full cold solve of `problem`.
  static Result<std::unique_ptr<DeltaReplanner>> Create(CoreProblem problem,
                                                        Options options);

  /// Applies the batch and re-solves. On success the internal state is
  /// byte-equivalent to a cold scan solve of problem() — see file comment.
  /// On invalid updates, returns the error with the problem unchanged.
  Result<ReplanResult> Replan(const std::vector<ElementUpdate>& updates);

  /// The current problem (all applied updates included).
  const CoreProblem& problem() const { return problem_; }

  /// The current flip multiplier (0 when no element is active).
  double multiplier() const { return mu_; }

  /// Original indexes whose materialized frequency changed bits in the last
  /// replan. Meaningful only when the last ReplanResult had
  /// all_touched == false (sorted; often empty under pure tail churn).
  const std::vector<size_t>& touched() const { return touched_; }

  /// Writes the full frequency vector: byte-identical to the cold solver's
  /// Allocation::frequencies for problem(). O(N).
  void MaterializeFrequencies(std::vector<double>* frequencies) const;

  /// Full Allocation with diagnostics (objective / bandwidth_used computed
  /// exactly as the cold solver computes them). O(N) plus two reductions.
  Allocation MaterializeAllocation() const;

 private:
  DeltaReplanner(CoreProblem problem, Options options);

  /// Rebuilds the compacted active set + evaluator from problem_.
  void Compact();
  /// Cold search from scratch (Compact() first), then RefreshAtMu().
  void FullSolve();
  /// Re-derives every mu-dependent cache for the current mu_: edge
  /// captures, block partials, fills, finish spend, boundary band, and the
  /// residual-removal outcome.
  void RefreshAtMu();
  /// Residual/boundary/rescale decision from the current spend_ (mirrors
  /// the cold solver's finish bit-for-bit).
  void FinishResidual();
  /// True iff lane k belongs in the boundary candidate band.
  bool InBoundaryBand(size_t k) const;

  Options options_;
  CoreProblem problem_;
  std::unique_ptr<par::Executor> exec_;

  // Compacted active set (ascending original index; identical construction
  // to the cold solver's).
  std::vector<size_t> index_;       // k -> original i.
  std::vector<double> ratio_;       // c l / w.
  std::vector<double> lambda_;      // Change rate.
  std::vector<double> spend_scale_; // c l.
  std::vector<size_t> active_of_;   // i -> k + 1 (0 = inactive).
  double mu_max_ = 0.0;
  std::unique_ptr<BreakpointSpendEvaluator> eval_;

  // Flip state: mu_ is the not-P edge, edge_lo_ its lattice predecessor
  // (spend above budget). Per-element cold spend contributions at both
  // edges plus their block-partial trees and merged totals.
  double mu_ = 0.0;
  double edge_lo_ = 0.0;
  std::vector<double> contrib_lo_, contrib_hi_;
  std::vector<double> partial_lo_, partial_hi_;
  double total_lo_ = 0.0, total_hi_ = 0.0;

  // Factored allocation: compact cold fills at mu_, the finish-spend tree
  // over cost*fill, and the residual-removal outcome.
  std::vector<double> fill_;
  std::vector<double> finish_contrib_;
  std::vector<double> finish_partials_;
  double spend_ = 0.0;
  double scale_ = 1.0;               // 1.0 = no rescale applied.
  size_t boundary_index_ = SIZE_MAX; // Original index; SIZE_MAX = none.
  double boundary_grant_ = 0.0;

  // Zero-fill active lanes whose zero-frequency marginal sits in the cold
  // solver's qualifying band, ordered (marginal desc, lane asc) — the head
  // is exactly the element the cold linear scan would grant the residual.
  struct BandOrder {
    bool operator()(const std::pair<double, size_t>& a,
                    const std::pair<double, size_t>& b) const {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    }
  };
  std::set<std::pair<double, size_t>, BandOrder> boundary_band_;

  std::vector<size_t> touched_;
  int last_probes_ = 0;

  // Metrics handles (registry-owned).
  obs::Counter* replans_pinned_;
  obs::Counter* replans_warm_;
  obs::Counter* replans_full_;
  obs::Histogram* dirty_hist_;
  obs::Histogram* probes_hist_;
  obs::Histogram* seconds_hist_;
  SearchProbeCounters search_probes_;
};

}  // namespace freshen

#endif  // FRESHEN_OPT_DELTA_REPLAN_H_
