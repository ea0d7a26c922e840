// Tests for the FreshenPlanner: the end-to-end planning API in all its
// configurations, including the paper's key qualitative claims.
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "core/planner.h"
#include "model/metrics.h"
#include "workload/generator.h"

namespace freshen {
namespace {

ElementSet IdealCatalog(double theta, Alignment alignment) {
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.theta = theta;
  spec.alignment = alignment;
  return GenerateCatalog(spec).value();
}

TEST(PlannerTest, TechniqueNames) {
  EXPECT_EQ(ToString(Technique::kPerceived), "PF_TECHNIQUE");
  EXPECT_EQ(ToString(Technique::kGeneral), "GF_TECHNIQUE");
}

TEST(PlannerTest, ExactPlanSpendsExactlyTheBudget) {
  const ElementSet elements = IdealCatalog(1.0, Alignment::kShuffled);
  const FreshenPlan plan =
      FreshenPlanner({}).Plan(elements, 250.0).value();
  EXPECT_NEAR(plan.bandwidth_used, 250.0, 1e-6);
  EXPECT_NEAR(BandwidthUsed(elements, plan.frequencies), 250.0, 1e-6);
  EXPECT_EQ(plan.num_partitions_used, 0u);
}

TEST(PlannerTest, PfEqualsGfAtThetaZero) {
  // Figure 3's left edge: with a uniform profile both techniques produce
  // the same schedule.
  const ElementSet elements = IdealCatalog(0.0, Alignment::kShuffled);
  PlannerOptions pf_options;
  pf_options.technique = Technique::kPerceived;
  PlannerOptions gf_options;
  gf_options.technique = Technique::kGeneral;
  const FreshenPlan pf = FreshenPlanner(pf_options).Plan(elements, 250.0).value();
  const FreshenPlan gf = FreshenPlanner(gf_options).Plan(elements, 250.0).value();
  for (size_t i = 0; i < elements.size(); ++i) {
    EXPECT_NEAR(pf.frequencies[i], gf.frequencies[i], 1e-6);
  }
  EXPECT_NEAR(pf.perceived_freshness, gf.perceived_freshness, 1e-9);
}

class PlannerAlignmentTest : public ::testing::TestWithParam<Alignment> {};

TEST_P(PlannerAlignmentTest, PfBeatsGfOnPerceivedFreshnessUnderSkew) {
  // The paper's central claim, for every alignment and strong skew.
  const ElementSet elements = IdealCatalog(1.2, GetParam());
  PlannerOptions pf_options;
  PlannerOptions gf_options;
  gf_options.technique = Technique::kGeneral;
  const FreshenPlan pf = FreshenPlanner(pf_options).Plan(elements, 250.0).value();
  const FreshenPlan gf = FreshenPlanner(gf_options).Plan(elements, 250.0).value();
  EXPECT_GT(pf.perceived_freshness, gf.perceived_freshness);
  // And GF (which optimizes general freshness) wins on its own metric.
  EXPECT_GE(gf.general_freshness, pf.general_freshness - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Alignments, PlannerAlignmentTest,
                         ::testing::Values(Alignment::kAligned,
                                           Alignment::kReverse,
                                           Alignment::kShuffled));

TEST(PlannerTest, PartitionedApproachesExactAsPartitionsGrow) {
  const ElementSet elements = IdealCatalog(1.0, Alignment::kShuffled);
  const double bandwidth = 250.0;
  const double exact = FreshenPlanner({})
                           .Plan(elements, bandwidth)
                           .value()
                           .perceived_freshness;
  double prev = 0.0;
  for (size_t k : {5u, 25u, 125u, 500u}) {
    PlannerOptions options;
    options.mode = PlanMode::kPartitioned;
    options.partition_key = PartitionKey::kPerceivedFreshness;
    options.num_partitions = k;
    const double pf = FreshenPlanner(options)
                          .Plan(elements, bandwidth)
                          .value()
                          .perceived_freshness;
    EXPECT_LE(pf, exact + 1e-9) << k;
    EXPECT_GE(pf, prev - 0.02) << k;  // Broadly improving in k.
    prev = pf;
  }
  // With K = N the heuristic is the exact solution.
  PlannerOptions full;
  full.mode = PlanMode::kPartitioned;
  full.num_partitions = elements.size();
  const double pf_full = FreshenPlanner(full)
                             .Plan(elements, bandwidth)
                             .value()
                             .perceived_freshness;
  EXPECT_NEAR(pf_full, exact, 1e-6);
}

TEST(PlannerTest, PartitionedReportsPartitionCountAndTimings) {
  const ElementSet elements = IdealCatalog(1.0, Alignment::kShuffled);
  PlannerOptions options;
  options.mode = PlanMode::kPartitioned;
  options.num_partitions = 40;
  options.kmeans_iterations = 3;
  const FreshenPlan plan =
      FreshenPlanner(options).Plan(elements, 250.0).value();
  EXPECT_GT(plan.num_partitions_used, 0u);
  EXPECT_LE(plan.num_partitions_used, 40u);
  EXPECT_GE(plan.timings.total_seconds, 0.0);
  EXPECT_GE(plan.timings.kmeans_seconds, 0.0);
  EXPECT_NEAR(plan.bandwidth_used, 250.0, 1e-6);
}

TEST(PlannerTest, GfPartitionedIgnoresProfile) {
  // Partitioned GF must produce near-identical PF-evaluated plans for two
  // catalogs differing only in profile (weights are uniform).
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.alignment = Alignment::kShuffled;
  ElementSet a = GenerateCatalog(spec).value();
  ElementSet b = a;
  // Replace b's profile with uniform.
  for (auto& e : b) e.access_prob = 1.0 / static_cast<double>(b.size());
  PlannerOptions options;
  options.technique = Technique::kGeneral;
  options.mode = PlanMode::kPartitioned;
  options.partition_key = PartitionKey::kChangeRate;  // Profile-free key.
  options.num_partitions = 25;
  const FreshenPlan plan_a = FreshenPlanner(options).Plan(a, 250.0).value();
  const FreshenPlan plan_b = FreshenPlanner(options).Plan(b, 250.0).value();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(plan_a.frequencies[i], plan_b.frequencies[i], 1e-9);
  }
}

TEST(PlannerTest, SizeAwarePlanningBeatsSizeBlindOnSizedCatalog) {
  // The §5 headline: accounting for sizes yields much better perceived
  // freshness under the same true bandwidth.
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.size_model = SizeModel::kPareto;
  spec.size_alignment = SizeAlignment::kAligned;
  spec.theta = 0.0;
  spec.alignment = Alignment::kAligned;
  const ElementSet elements = GenerateCatalog(spec).value();

  PlannerOptions blind;
  blind.size_aware = false;
  PlannerOptions aware;
  aware.size_aware = true;
  const FreshenPlan blind_plan =
      FreshenPlanner(blind).Plan(elements, 250.0).value();
  const FreshenPlan aware_plan =
      FreshenPlanner(aware).Plan(elements, 250.0).value();
  // Both consume the same true bandwidth...
  EXPECT_NEAR(blind_plan.bandwidth_used, 250.0, 1e-6);
  EXPECT_NEAR(aware_plan.bandwidth_used, 250.0, 1e-6);
  // ...but the size-aware plan sees clearly fresher accesses. (The paper's
  // Figure 10 gap is 0.312 vs 0.586; the exact ratio depends on the size
  // draw — bench_fig10 reports the measured gap.)
  EXPECT_GT(aware_plan.perceived_freshness,
            blind_plan.perceived_freshness + 0.02);
}

TEST(PlannerTest, RejectsInvalidInput) {
  const ElementSet elements = IdealCatalog(1.0, Alignment::kShuffled);
  EXPECT_FALSE(FreshenPlanner({}).Plan({}, 10.0).ok());
  EXPECT_FALSE(FreshenPlanner({}).Plan(elements, 0.0).ok());
  EXPECT_FALSE(FreshenPlanner({}).Plan(elements, -5.0).ok());
  ElementSet bad = elements;
  bad[0].size = 0.0;
  EXPECT_FALSE(FreshenPlanner({}).Plan(bad, 10.0).ok());
}

TEST(PlannerTest, RejectsNonFiniteSizes) {
  // With size_aware = false the solver never sees sizes, so an infinite
  // size used to reach the feasibility rescale as inf * 0 = NaN spend: the
  // rescale was skipped and the plan came back ok with NaN bandwidth.
  const ElementSet elements = IdealCatalog(1.0, Alignment::kShuffled);
  for (double size : {std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::quiet_NaN()}) {
    for (bool size_aware : {false, true}) {
      ElementSet bad = elements;
      bad[3].size = size;
      PlannerOptions options;
      options.size_aware = size_aware;
      const Result<FreshenPlan> plan = FreshenPlanner(options).Plan(bad, 10.0);
      ASSERT_FALSE(plan.ok()) << "size=" << size << " aware=" << size_aware;
      EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(PlannerTest, BothModesRejectNegativeOrNonFiniteRatesAndProbabilities) {
  // The partitioned plan used to accept what the exact plan rejects: a
  // p or lambda of -0.001 came back ok with a plausible PF, and a NaN
  // reached the partition sort as a key.
  const ElementSet elements = IdealCatalog(1.0, Alignment::kShuffled);
  const double bads[] = {-0.001, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()};
  for (PlanMode mode : {PlanMode::kExact, PlanMode::kPartitioned}) {
    PlannerOptions options;
    options.mode = mode;
    options.num_partitions = 20;
    options.kmeans_iterations = 2;
    for (double bad : bads) {
      for (bool rate : {false, true}) {
        ElementSet catalog = elements;
        (rate ? catalog[49].change_rate : catalog[49].access_prob) = bad;
        const Result<FreshenPlan> plan =
            FreshenPlanner(options).Plan(catalog, 10.0);
        ASSERT_FALSE(plan.ok()) << "bad=" << bad << " rate=" << rate;
        EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
        EXPECT_NE(plan.status().message().find("element 49 "),
                  std::string::npos)
            << plan.status().ToString();
      }
    }
  }
}

TEST(PlannerTest, PartitionedAcceptsZeroAndSubnormalRates) {
  // Valid extremes still plan: lambda = 0 (the P/L guard key), a
  // subnormal lambda whose p/lambda overflows (saturated to a finite key),
  // and for the PF/S key lambda / (1/s) rounding to 0, both from a
  // subnormal size (1/s = inf) and from a size below 1 with a subnormal
  // lambda (freshness taken at its limit 1).
  ElementSet elements = IdealCatalog(1.0, Alignment::kShuffled);
  elements[3].change_rate = 0.0;
  elements[4].change_rate = std::numeric_limits<double>::denorm_min();
  elements[5].size = std::numeric_limits<double>::denorm_min();
  elements[6].size = 0.25;
  elements[6].change_rate = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(PartitionSortKey(PartitionKey::kPerceivedFreshnessSize,
                             elements[5]),
            elements[5].access_prob);
  EXPECT_EQ(PartitionSortKey(PartitionKey::kPerceivedFreshnessSize,
                             elements[6]),
            elements[6].access_prob);
  ASSERT_TRUE(FreshenPlanner(PlannerOptions()).Plan(elements, 10.0).ok());
  for (PartitionKey key :
       {PartitionKey::kProbOverLambda, PartitionKey::kPerceivedFreshness,
        PartitionKey::kPerceivedFreshnessSize}) {
    PlannerOptions options;
    options.mode = PlanMode::kPartitioned;
    options.partition_key = key;
    options.num_partitions = 20;
    options.kmeans_iterations = 3;
    const Result<FreshenPlan> plan =
        FreshenPlanner(options).Plan(elements, 10.0);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NEAR(plan->bandwidth_used, 10.0, 1e-9);
  }
}

TEST(PlannerTest, FusedTailMatchesSeparateMetricsBitForBit) {
  // Plan's closing metrics come from one fused pass; they must equal the
  // standalone metric functions on the returned frequencies exactly.
  const ElementSet elements = IdealCatalog(1.6, Alignment::kShuffled);
  for (auto mode : {PlanMode::kExact, PlanMode::kPartitioned}) {
    PlannerOptions options;
    options.mode = mode;
    options.num_partitions = 30;
    const FreshenPlan plan =
        FreshenPlanner(options).Plan(elements, 250.0).value();
    const double pf = PerceivedFreshness(elements, plan.frequencies);
    const double gf = GeneralFreshness(elements, plan.frequencies);
    const double bw = BandwidthUsed(elements, plan.frequencies);
    EXPECT_EQ(std::memcmp(&plan.perceived_freshness, &pf, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&plan.general_freshness, &gf, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&plan.bandwidth_used, &bw, sizeof(double)), 0);
  }
}

TEST(PlannerTest, FrequenciesAreNonNegativeAndFinite) {
  const ElementSet elements = IdealCatalog(1.6, Alignment::kAligned);
  for (auto mode : {PlanMode::kExact, PlanMode::kPartitioned}) {
    PlannerOptions options;
    options.mode = mode;
    options.num_partitions = 30;
    const FreshenPlan plan =
        FreshenPlanner(options).Plan(elements, 250.0).value();
    for (double f : plan.frequencies) {
      EXPECT_GE(f, 0.0);
      EXPECT_TRUE(std::isfinite(f));
    }
  }
}

}  // namespace
}  // namespace freshen
