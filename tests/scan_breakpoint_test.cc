// opt/scan_breakpoint.h — the lattice multiplier search. Two properties
// carry the whole design:
//
//   1. The mu lattice is exact bit arithmetic: floor/ceil/next/prev/
//      midpoint/distance never round, so every search path speaks the same
//      set of candidate multipliers.
//   2. The spend predicate has a unique flip on that lattice, so the
//      scan-breakpoint search and the plain bisection oracle — structurally
//      different probe sequences — must produce BYTE-identical allocations,
//      at every thread count. These tests enforce that with memcmp, not
//      tolerances. Thread-sweep tests run under `ctest -L tsan` in a
//      FRESHEN_SANITIZE=thread build.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "opt/age_water_filling.h"
#include "opt/problem.h"
#include "opt/scan_breakpoint.h"
#include "opt/water_filling.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace freshen {
namespace {

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Lattice helpers.
// ---------------------------------------------------------------------------

TEST(MuLatticeTest, FloorCeilBracketTheInput) {
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> mag(-250.0, 250.0);
  for (int i = 0; i < 100000; ++i) {
    const double mu = std::exp2(mag(rng)) * (1.0 + 1e-6 * (rng() % 1000));
    const double lo = MuLatticeFloor(mu);
    const double hi = MuLatticeCeil(mu);
    ASSERT_TRUE(IsMuLatticePoint(lo)) << mu;
    ASSERT_TRUE(IsMuLatticePoint(hi)) << mu;
    ASSERT_LE(lo, mu);
    ASSERT_GE(hi, mu);
    if (IsMuLatticePoint(mu)) {
      ASSERT_EQ(lo, mu);
      ASSERT_EQ(hi, mu);
    } else {
      ASSERT_EQ(MuLatticeDistance(lo, hi), 1u) << mu;
    }
    // Round lands on one of the two bracketing points.
    const double nearest = MuLatticeRound(mu);
    ASSERT_TRUE(nearest == lo || nearest == hi) << mu;
  }
}

TEST(MuLatticeTest, NextPrevAreExactInverses) {
  std::mt19937_64 rng(2);
  std::uniform_real_distribution<double> mag(-250.0, 250.0);
  for (int i = 0; i < 100000; ++i) {
    const double g = MuLatticeFloor(std::exp2(mag(rng)));
    const double up = MuLatticeNext(g);
    ASSERT_GT(up, g);
    ASSERT_TRUE(IsMuLatticePoint(up)) << g;
    ASSERT_EQ(MuLatticePrev(up), g);
    ASSERT_EQ(MuLatticeDistance(g, up), 1u);
    // No lattice point strictly between adjacent points.
    ASSERT_EQ(MuLatticeCeil(std::nextafter(g, up)), up);
  }
}

TEST(MuLatticeTest, StepsCrossBinadesCleanly) {
  // The top lattice point of a binade steps to the bottom of the next.
  const double top = std::bit_cast<double>(
      std::bit_cast<uint64_t>(2.0) - kMuLatticeStep);
  ASSERT_TRUE(IsMuLatticePoint(top));
  EXPECT_EQ(MuLatticeNext(top), 2.0);
  EXPECT_EQ(MuLatticePrev(2.0), top);
}

TEST(MuLatticeTest, MidpointBisectsStrictly) {
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> mag(-200.0, 200.0);
  for (int i = 0; i < 100000; ++i) {
    const double a = MuLatticeFloor(std::exp2(mag(rng)));
    // b between 1 and ~2^40 lattice steps above a (spans many binades).
    const uint64_t steps = 1 + (rng() % (uint64_t{1} << 40));
    const double b = std::bit_cast<double>(std::bit_cast<uint64_t>(a) +
                                           steps * kMuLatticeStep);
    const double mid = MuLatticeMidpoint(a, b);
    ASSERT_TRUE(IsMuLatticePoint(mid)) << a << " " << b;
    ASSERT_GE(mid, a);
    ASSERT_LT(mid, b);
    if (steps == 1) {
      ASSERT_EQ(mid, a);  // Adjacent pair: bisection terminates.
    } else {
      // Strictly interior: both sides shrink, so bisection always
      // terminates in ~log2(steps) probes.
      ASSERT_GT(mid, a);
      ASSERT_LT(MuLatticeDistance(a, mid), steps);
      ASSERT_LT(MuLatticeDistance(mid, b), steps);
    }
  }
}

// ---------------------------------------------------------------------------
// Scan vs oracle: byte-identical allocations.
// ---------------------------------------------------------------------------

CoreProblem RandomProblem(size_t n, uint64_t seed, double budget_factor) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  CoreProblem problem;
  double scale = 0.0;
  for (size_t i = 0; i < n; ++i) {
    problem.weights.push_back(std::exp(u(rng)));
    problem.change_rates.push_back(std::exp(u(rng)));
    problem.costs.push_back(std::exp(0.5 * u(rng)));
    // Occasional inactive rows (zero weight / zero rate) so the compaction
    // path is exercised inside otherwise-normal problems.
    if (n > 4 && rng() % 7 == 0) {
      (rng() % 2 == 0 ? problem.weights : problem.change_rates).back() = 0.0;
    }
    scale += problem.costs.back() * problem.change_rates.back();
  }
  // budget_factor ~ bandwidth per unit of sum(c*lambda): ~1 funds roughly
  // r = 1 everywhere, << 1 starves, >> 1 saturates.
  problem.bandwidth = std::max(budget_factor * scale, 1e-30);
  return problem;
}

Allocation SolveFreshness(const CoreProblem& problem, MultiplierSearch mode,
                          size_t threads) {
  KktWaterFillingSolver::Options options;
  options.search = mode;
  options.threads = threads;
  Result<Allocation> result = KktWaterFillingSolver(options).Solve(problem);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

Allocation SolveAge(const CoreProblem& problem, MultiplierSearch mode,
                    size_t threads) {
  AgeWaterFillingSolver::Options options;
  options.search = mode;
  options.threads = threads;
  Result<Allocation> result = AgeWaterFillingSolver(options).Solve(problem);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

TEST(ScanBreakpointTest, ScanMatchesOracleByteForByteOnRandomProblems) {
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{8},
                   size_t{17}, size_t{100}, size_t{1000}, size_t{5000}}) {
    for (uint64_t seed : {11u, 23u, 47u}) {
      for (double budget_factor : {0.01, 0.3, 2.0}) {
        const CoreProblem problem = RandomProblem(n, seed, budget_factor);
        const Allocation scan =
            SolveFreshness(problem, MultiplierSearch::kScanBreakpoint, 1);
        const Allocation oracle =
            SolveFreshness(problem, MultiplierSearch::kBisectionOracle, 1);
        ASSERT_TRUE(SameBits(scan.multiplier, oracle.multiplier))
            << "n=" << n << " seed=" << seed << " bf=" << budget_factor
            << " scan=" << scan.multiplier << " oracle=" << oracle.multiplier;
        ASSERT_TRUE(SameBytes(scan.frequencies, oracle.frequencies))
            << "n=" << n << " seed=" << seed << " bf=" << budget_factor;
      }
    }
  }
}

TEST(ScanBreakpointTest, AgeScanMatchesOracleByteForByte) {
  for (size_t n : {size_t{1}, size_t{17}, size_t{1000}}) {
    for (uint64_t seed : {5u, 29u}) {
      for (double budget_factor : {0.05, 1.0}) {
        const CoreProblem problem = RandomProblem(n, seed, budget_factor);
        const Allocation scan =
            SolveAge(problem, MultiplierSearch::kScanBreakpoint, 1);
        const Allocation oracle =
            SolveAge(problem, MultiplierSearch::kBisectionOracle, 1);
        ASSERT_TRUE(SameBits(scan.multiplier, oracle.multiplier))
            << "n=" << n << " seed=" << seed << " bf=" << budget_factor;
        ASSERT_TRUE(SameBytes(scan.frequencies, oracle.frequencies))
            << "n=" << n << " seed=" << seed << " bf=" << budget_factor;
      }
    }
  }
}

TEST(ScanBreakpointTest, TiedBreakpointsStayByteIdentical) {
  // 64 copies of the same row: every activation threshold coincides, the
  // worst case for the breakpoint scan's sort/unique band. Symmetric
  // elements must also receive identical frequencies.
  CoreProblem problem;
  problem.weights.assign(64, 0.7);
  problem.change_rates.assign(64, 2.5);
  problem.costs.assign(64, 1.3);
  for (double budget_factor : {1e-6, 0.1, 3.0}) {
    problem.bandwidth = budget_factor * 64 * 1.3 * 2.5;
    const Allocation scan =
        SolveFreshness(problem, MultiplierSearch::kScanBreakpoint, 1);
    const Allocation oracle =
        SolveFreshness(problem, MultiplierSearch::kBisectionOracle, 1);
    ASSERT_TRUE(SameBytes(scan.frequencies, oracle.frequencies))
        << "bf=" << budget_factor;
    if (budget_factor >= 0.1) {
      // Generous budget: all 64 copies funded, and by lane independence the
      // identical rows must receive bit-identical frequencies. (Below the
      // funding cutoff the residual deliberately goes to ONE boundary
      // element — any split among tied boundary elements is equally
      // optimal — so symmetry is not expected there.)
      for (size_t i = 1; i < 64; ++i) {
        ASSERT_TRUE(SameBits(scan.frequencies[i], scan.frequencies[0]))
            << "i=" << i << " bf=" << budget_factor;
      }
    }
    EXPECT_NEAR(problem.Spend(scan.frequencies), problem.bandwidth,
                1e-9 * problem.bandwidth)
        << "bf=" << budget_factor;
  }
}

TEST(ScanBreakpointTest, DegenerateProblemsAgreeAcrossModes) {
  // N = 0 is rejected upstream by CoreProblem::Validate in both modes.
  {
    CoreProblem empty;
    empty.bandwidth = 1.0;
    KktWaterFillingSolver::Options options;
    for (MultiplierSearch mode : {MultiplierSearch::kScanBreakpoint,
                                  MultiplierSearch::kBisectionOracle}) {
      options.search = mode;
      EXPECT_FALSE(KktWaterFillingSolver(options).Solve(empty).ok());
    }
  }
  // N = 1: the single element takes the whole budget, exactly, both modes.
  {
    CoreProblem one;
    one.weights = {0.4};
    one.change_rates = {3.0};
    one.costs = {2.0};
    one.bandwidth = 5.0;
    const Allocation scan =
        SolveFreshness(one, MultiplierSearch::kScanBreakpoint, 1);
    const Allocation oracle =
        SolveFreshness(one, MultiplierSearch::kBisectionOracle, 1);
    ASSERT_TRUE(SameBytes(scan.frequencies, oracle.frequencies));
    EXPECT_NEAR(scan.frequencies[0], 5.0 / 2.0, 1e-9);
  }
  // All-inactive: every element has zero weight or zero rate — the all-zero
  // schedule, identical in both modes (the search never runs).
  {
    CoreProblem inert;
    inert.weights = {0.0, 1.0, 0.0};
    inert.change_rates = {2.0, 0.0, 0.0};
    inert.costs = {1.0, 1.0, 1.0};
    inert.bandwidth = 1.0;
    const Allocation scan =
        SolveFreshness(inert, MultiplierSearch::kScanBreakpoint, 1);
    const Allocation oracle =
        SolveFreshness(inert, MultiplierSearch::kBisectionOracle, 1);
    ASSERT_TRUE(SameBytes(scan.frequencies, oracle.frequencies));
    for (double f : scan.frequencies) EXPECT_EQ(f, 0.0);
  }
  // All-active: with activation thresholds w/(c*lambda) within a factor of
  // 8 of each other and a generous budget, the multiplier sits far below
  // every threshold and no element is priced out. (A wide random ratio
  // spread would NOT guarantee this — the cheapest-to-ignore elements lose
  // funding at any finite budget.)
  {
    CoreProblem rich;
    std::mt19937_64 rng(77);
    std::uniform_real_distribution<double> u(1.0, 2.0);
    double scale = 0.0;
    for (size_t i = 0; i < 200; ++i) {
      rich.weights.push_back(u(rng));
      rich.change_rates.push_back(u(rng));
      rich.costs.push_back(u(rng));
      scale += rich.costs.back() * rich.change_rates.back();
    }
    rich.bandwidth = 5.0 * scale;
    const Allocation scan =
        SolveFreshness(rich, MultiplierSearch::kScanBreakpoint, 1);
    const Allocation oracle =
        SolveFreshness(rich, MultiplierSearch::kBisectionOracle, 1);
    ASSERT_TRUE(SameBytes(scan.frequencies, oracle.frequencies));
    for (size_t i = 0; i < rich.size(); ++i) {
      EXPECT_GT(scan.frequencies[i], 0.0) << i;
    }
  }
}

TEST(ScanBreakpointTest, ScanUsesFewerProbesThanOracle) {
  // The point of the scan: a surrogate-started gallop plus secant (~6-10
  // exact spend evaluations) instead of the oracle's halving descent and
  // full lattice bisection (~50). `iterations` reports exact probe counts.
  const CoreProblem problem = RandomProblem(5000, 99, 0.2);
  const Allocation scan =
      SolveFreshness(problem, MultiplierSearch::kScanBreakpoint, 1);
  const Allocation oracle =
      SolveFreshness(problem, MultiplierSearch::kBisectionOracle, 1);
  EXPECT_LT(scan.iterations, oracle.iterations)
      << "scan=" << scan.iterations << " oracle=" << oracle.iterations;
  EXPECT_GE(oracle.iterations, 30);
}

TEST(ScanBreakpointTest, AllocationIsByteIdenticalAcrossThreadCounts) {
  // The full solver — search probes, warm-started spend evaluations, final
  // fill — at 1/2/4/8 threads, both modes, both solvers. memcmp, not
  // tolerance: this is the determinism contract end to end.
  const CoreProblem problem = RandomProblem(20000, 123, 0.15);
  for (MultiplierSearch mode : {MultiplierSearch::kScanBreakpoint,
                                MultiplierSearch::kBisectionOracle}) {
    const Allocation base = SolveFreshness(problem, mode, 1);
    const Allocation age_base = SolveAge(problem, mode, 1);
    for (size_t threads : {2u, 4u, 8u}) {
      const Allocation got = SolveFreshness(problem, mode, threads);
      ASSERT_TRUE(SameBits(got.multiplier, base.multiplier))
          << "threads=" << threads;
      ASSERT_TRUE(SameBytes(got.frequencies, base.frequencies))
          << "threads=" << threads;
      const Allocation age_got = SolveAge(problem, mode, threads);
      ASSERT_TRUE(SameBits(age_got.multiplier, age_base.multiplier))
          << "threads=" << threads;
      ASSERT_TRUE(SameBytes(age_got.frequencies, age_base.frequencies))
          << "threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Surrogate-started cold search: fewer exact probes, same bytes.
// ---------------------------------------------------------------------------

/// A scaled-down Table 3 Big Case: the generator's Big Case catalog at n
/// elements with the paper's B/N = 1/2, as a perceived-freshness problem.
CoreProblem BigCaseShaped(size_t n, uint64_t seed) {
  ExperimentSpec spec = ExperimentSpec::BigCase();
  spec.num_objects = n;
  spec.syncs_per_period = 0.5 * static_cast<double>(n);
  spec.seed = seed;
  return MakePerceivedProblem(GenerateCatalog(spec).value(),
                              spec.syncs_per_period);
}

/// Scan mode at 1 and 4 threads, byte-equal to the 1-thread oracle, for
/// the freshness (G) kernel and, when `age`, the age (H) kernel. Returns
/// the largest exact probe count scan mode used.
int ExpectScanMatchesOracle(const CoreProblem& problem, bool age,
                            const char* what) {
  int worst = 0;
  for (bool age_kernel : {false, true}) {
    if (age_kernel && !age) continue;
    auto solve = [&](MultiplierSearch mode, size_t threads) {
      return age_kernel ? SolveAge(problem, mode, threads)
                        : SolveFreshness(problem, mode, threads);
    };
    const Allocation oracle = solve(MultiplierSearch::kBisectionOracle, 1);
    for (size_t threads : {1u, 4u}) {
      const Allocation scan = solve(MultiplierSearch::kScanBreakpoint, threads);
      EXPECT_TRUE(SameBits(scan.multiplier, oracle.multiplier))
          << what << " age=" << age_kernel << " threads=" << threads
          << " scan=" << scan.multiplier << " oracle=" << oracle.multiplier;
      EXPECT_TRUE(SameBytes(scan.frequencies, oracle.frequencies))
          << what << " age=" << age_kernel << " threads=" << threads;
      worst = std::max(worst, scan.iterations);
    }
  }
  return worst;
}

TEST(SurrogateSearchTest, BigCaseColdSolveNeedsFewExactProbes) {
  // The halving descent this replaces spent ~22 of its ~31 exact probes on
  // Big Case just bracketing; starting at the surrogate root leaves a short
  // gallop and the secant.
  const CoreProblem problem = BigCaseShaped(50000, 7);
  const int probes = ExpectScanMatchesOracle(problem, /*age=*/true, "big");
  EXPECT_LE(probes, 10);
}

TEST(SurrogateSearchTest, StageCountsAddUpToProbes) {
  const CoreProblem problem = BigCaseShaped(20000, 3);
  std::vector<double> ratio, lambda, spend_scale;
  double mu_max = 0.0;
  for (size_t i = 0; i < problem.size(); ++i) {
    if (problem.weights[i] > 0.0 && problem.change_rates[i] > 0.0) {
      ratio.push_back(problem.costs[i] * problem.change_rates[i] /
                      problem.weights[i]);
      lambda.push_back(problem.change_rates[i]);
      spend_scale.push_back(problem.costs[i] * problem.change_rates[i]);
      mu_max = std::max(mu_max, 1.0 / ratio.back());
    }
  }
  const par::Executor exec(1);
  for (MultiplierSearch mode : {MultiplierSearch::kScanBreakpoint,
                                MultiplierSearch::kBisectionOracle}) {
    BreakpointSpendEvaluator eval(
        BreakpointSpendEvaluator::Kernel::kFreshnessG, ratio, lambda,
        spend_scale, &exec);
    const GridSearchResult search = SolveMultiplierCold(
        &eval, problem.bandwidth, mu_max, mode, nullptr, 400);
    EXPECT_EQ(search.probes, search.bracket_probes + search.secant_probes +
                                 search.breakpoint_probes +
                                 search.bisection_probes);
    if (mode == MultiplierSearch::kScanBreakpoint) {
      EXPECT_GT(search.surrogate_probes, 0);
      EXPECT_GT(search.bracket_probes, 0);
    } else {
      // The oracle runs no surrogate, no secant and no breakpoint scan.
      EXPECT_EQ(search.surrogate_probes, 0);
      EXPECT_EQ(search.secant_probes, 0);
      EXPECT_EQ(search.breakpoint_probes, 0);
      EXPECT_GE(search.bracket_probes, 2);
    }
  }
}

TEST(SurrogateSearchTest, EstimateIsBitIdenticalAcrossThreadCounts) {
  // ~100k lanes span several histogram shards; the estimate (and the
  // surrogate probe count) must not depend on how many threads bin them.
  const CoreProblem problem = BigCaseShaped(100000, 11);
  std::vector<double> ratio, lambda, spend_scale;
  for (size_t i = 0; i < problem.size(); ++i) {
    if (problem.weights[i] > 0.0 && problem.change_rates[i] > 0.0) {
      ratio.push_back(problem.costs[i] * problem.change_rates[i] /
                      problem.weights[i]);
      lambda.push_back(problem.change_rates[i]);
      spend_scale.push_back(problem.costs[i] * problem.change_rates[i]);
    }
  }
  for (auto kernel : {BreakpointSpendEvaluator::Kernel::kFreshnessG,
                      BreakpointSpendEvaluator::Kernel::kAgeH}) {
    double base = 0.0;
    int base_probes = 0;
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      const par::Executor exec(threads);
      const BreakpointSpendEvaluator eval(kernel, ratio, lambda, spend_scale,
                                          &exec);
      int probes = 0;
      const double estimate =
          eval.EstimateMultiplier(problem.bandwidth, 0.0, &probes);
      ASSERT_GT(estimate, 0.0);
      if (threads == 1) {
        base = estimate;
        base_probes = probes;
      } else {
        EXPECT_TRUE(SameBits(estimate, base)) << "threads=" << threads;
        EXPECT_EQ(probes, base_probes) << "threads=" << threads;
      }
    }
  }
}

TEST(SurrogateSearchTest, EveryRatioInOneBin) {
  // 1000 distinct ratios inside [2, 2.02): one histogram bin, so the
  // surrogate sees a single lane whose midpoint is off every real ratio.
  CoreProblem problem;
  double scale = 0.0;
  for (size_t k = 0; k < 1000; ++k) {
    problem.weights.push_back(1.0 / (1.0 + 1e-5 * static_cast<double>(k)));
    problem.change_rates.push_back(2.0);
    problem.costs.push_back(1.0);
    scale += 2.0;
  }
  for (double budget_factor : {0.01, 0.3, 2.0}) {
    problem.bandwidth = budget_factor * scale;
    ExpectScanMatchesOracle(problem, /*age=*/true, "one bin");
  }
}

TEST(SurrogateSearchTest, RatiosSpanningHundredsOfBinades) {
  // Weights over 2^-300..2^300: 600 octaves of ratio, past the histogram's
  // 256-octave budget, so the binning coarsens.
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> octave(-300.0, 300.0);
  CoreProblem problem;
  for (size_t k = 0; k < 2000; ++k) {
    problem.weights.push_back(std::exp2(octave(rng)));
    problem.change_rates.push_back(1.0);
    problem.costs.push_back(1.0);
  }
  for (double budget_factor : {1e-3, 0.3, 5.0}) {
    problem.bandwidth = budget_factor * 2000.0;
    ExpectScanMatchesOracle(problem, /*age=*/true, "binades");
  }
}

TEST(SurrogateSearchTest, SingleActiveElement) {
  CoreProblem problem;
  problem.weights = {0.0, 0.8, 1.0, 0.0, 2.0};
  problem.change_rates = {3.0, 1.5, 0.0, 0.0, 0.0};
  problem.costs = {1.0, 2.5, 1.0, 1.0, 1.0};
  for (double bandwidth : {1e-6, 0.7, 40.0}) {
    problem.bandwidth = bandwidth;
    ExpectScanMatchesOracle(problem, /*age=*/true, "single");
    const Allocation scan =
        SolveFreshness(problem, MultiplierSearch::kScanBreakpoint, 1);
    EXPECT_NEAR(scan.frequencies[1] * 2.5, bandwidth, 1e-9 * bandwidth);
  }
}

TEST(SurrogateSearchTest, BudgetFundsExactlyOneElement) {
  // Activation thresholds 2^-k: at mu = 1/2 (the second threshold) element
  // 0 alone would spend c*lambda / g^{-1}(1/2) ~ 0.6 c*lambda, so a budget
  // of 0.1 c*lambda leaves mu* above every other threshold.
  CoreProblem problem;
  for (int k = 0; k < 40; ++k) {
    problem.weights.push_back(std::exp2(-k));
    problem.change_rates.push_back(1.0);
    problem.costs.push_back(1.0);
  }
  problem.bandwidth = 0.1;
  ExpectScanMatchesOracle(problem, /*age=*/false, "one funded");
  const Allocation scan =
      SolveFreshness(problem, MultiplierSearch::kScanBreakpoint, 4);
  EXPECT_GT(scan.frequencies[0], 0.0);
  for (size_t i = 1; i < problem.size(); ++i) {
    EXPECT_EQ(scan.frequencies[i], 0.0) << i;
  }
}

TEST(SurrogateSearchTest, BudgetFundsEveryElement) {
  // Thresholds within a factor of 8 and a budget 50x sum(c*lambda): mu*
  // sits far below every threshold.
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> u(1.0, 2.0);
  CoreProblem problem;
  double scale = 0.0;
  for (size_t k = 0; k < 3000; ++k) {
    problem.weights.push_back(u(rng));
    problem.change_rates.push_back(u(rng));
    problem.costs.push_back(u(rng));
    scale += problem.costs.back() * problem.change_rates.back();
  }
  problem.bandwidth = 50.0 * scale;
  ExpectScanMatchesOracle(problem, /*age=*/true, "all funded");
  const Allocation scan =
      SolveFreshness(problem, MultiplierSearch::kScanBreakpoint, 4);
  for (size_t i = 0; i < problem.size(); ++i) {
    EXPECT_GT(scan.frequencies[i], 0.0) << i;
  }
}

TEST(ScanBreakpointTest, EvaluatorPlanUsesTranscendentalSizing) {
  // The compacted active set gets its own transcendental-sized plan — not
  // the memory-bound default, and not a plan for the original problem size.
  std::vector<double> target(100000, 0.5), lambda(100000, 1.0),
      spend(100000, 1.0);
  const par::Executor exec(1);
  BreakpointSpendEvaluator eval(BreakpointSpendEvaluator::Kernel::kFreshnessG,
                                target, lambda, spend, &exec);
  EXPECT_EQ(eval.plan().size(),
            par::ShardCountFor(100000, par::kTranscendentalGrain,
                               par::kTranscendentalMaxShards));
  EXPECT_GT(eval.plan().size(), par::ShardCount(100000));
}

}  // namespace
}  // namespace freshen
