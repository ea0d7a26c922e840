// Shared instrumentation bundle for the Core Problem solvers. Each solver
// resolves its handles once (function-local static) and then updates them
// with lock-free atomic ops per solve — see docs/observability.md.
#ifndef FRESHEN_OPT_SOLVER_METRICS_H_
#define FRESHEN_OPT_SOLVER_METRICS_H_

#include "obs/metrics.h"
#include "opt/scan_breakpoint.h"

namespace freshen {

/// Cached registry handles for one solver implementation (labelled
/// solver="<name>" in the global registry).
struct SolverMetrics {
  obs::Counter* solves;          // freshen_solver_solves_total
  obs::Histogram* iterations;    // freshen_solver_iterations
  obs::Histogram* solve_seconds; // freshen_solver_solve_seconds
  obs::Gauge* residual;          // freshen_solver_residual (relative budget
                                 // mismatch at the returned allocation)
};

/// Registers (or looks up) the bundle for `solver`.
inline SolverMetrics MakeSolverMetrics(const char* solver) {
  auto& registry = obs::MetricsRegistry::Global();
  const obs::Labels labels = {{"solver", solver}};
  return SolverMetrics{
      registry.GetCounter("freshen_solver_solves_total", labels),
      registry.GetHistogram("freshen_solver_iterations",
                            obs::IterationCountBuckets(), labels),
      registry.GetHistogram("freshen_solver_solve_seconds",
                            obs::LatencySecondsBuckets(), labels),
      registry.GetGauge("freshen_solver_residual", labels)};
}

/// freshen_solver_probes_total{solver,stage}: spend evaluations per stage
/// of the lattice multiplier search (opt/scan_breakpoint.h). `surrogate`
/// counts O(bins) evaluations of the binned surrogate; the other four are
/// the exact O(active) probes. Per-solve costs only.
struct SearchProbeCounters {
  obs::Counter* surrogate;
  obs::Counter* bracket;
  obs::Counter* secant;
  obs::Counter* breakpoint;
  obs::Counter* bisection;

  void Record(const GridSearchResult& search) const {
    surrogate->Add(search.surrogate_probes);
    bracket->Add(search.bracket_probes);
    secant->Add(search.secant_probes);
    breakpoint->Add(search.breakpoint_probes);
    bisection->Add(search.bisection_probes);
  }
};

/// Registers (or looks up) the stage counters for `solver` in `registry`.
inline SearchProbeCounters MakeSearchProbeCounters(
    obs::MetricsRegistry& registry, const char* solver) {
  auto counter = [&](const char* stage) {
    return registry.GetCounter("freshen_solver_probes_total",
                               {{"solver", solver}, {"stage", stage}});
  };
  return SearchProbeCounters{counter("surrogate"), counter("bracket"),
                             counter("secant"), counter("breakpoint"),
                             counter("bisection")};
}

}  // namespace freshen

#endif  // FRESHEN_OPT_SOLVER_METRICS_H_
