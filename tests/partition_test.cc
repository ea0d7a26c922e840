// Tests for the sort-based partitioners, the transformed problem, and
// FFA/FBA allocation expansion.
#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "model/element.h"
#include "model/freshness.h"
#include "partition/allocation.h"
#include "partition/kmeans.h"
#include "partition/partitioner.h"
#include "partition/transformed.h"
#include "partition_reference.h"
#include "rng/rng.h"
#include "stats/descriptive.h"
#include "workload/generator.h"

namespace freshen {
namespace {

ElementSet SmallCatalog() {
  return MakeElementSet({4.0, 1.0, 3.0, 2.0, 5.0, 0.5},
                        {0.1, 0.3, 0.05, 0.25, 0.05, 0.25},
                        {1.0, 2.0, 0.5, 1.0, 4.0, 0.25});
}

TEST(PartitionKeyTest, Names) {
  EXPECT_EQ(ToString(PartitionKey::kAccessProb), "P_PARTITIONING");
  EXPECT_EQ(ToString(PartitionKey::kChangeRate), "LAMBDA_PARTITIONING");
  EXPECT_EQ(ToString(PartitionKey::kProbOverLambda),
            "P_OVER_LAMBDA_PARTITIONING");
  EXPECT_EQ(ToString(PartitionKey::kPerceivedFreshness), "PF_PARTITIONING");
  EXPECT_EQ(ToString(PartitionKey::kPerceivedFreshnessSize),
            "PF_OVER_S_PARTITIONING");
  EXPECT_EQ(ToString(PartitionKey::kSize), "SIZE_PARTITIONING");
}

TEST(PartitionKeyTest, SortKeysComputeDocumentedQuantities) {
  Element e;
  e.change_rate = 2.0;
  e.access_prob = 0.4;
  e.size = 2.0;
  EXPECT_DOUBLE_EQ(PartitionSortKey(PartitionKey::kAccessProb, e), 0.4);
  EXPECT_DOUBLE_EQ(PartitionSortKey(PartitionKey::kChangeRate, e), 2.0);
  EXPECT_DOUBLE_EQ(PartitionSortKey(PartitionKey::kProbOverLambda, e), 0.2);
  EXPECT_DOUBLE_EQ(PartitionSortKey(PartitionKey::kPerceivedFreshness, e),
                   0.4 * FixedOrderFreshness(1.0, 2.0));
  EXPECT_DOUBLE_EQ(PartitionSortKey(PartitionKey::kPerceivedFreshnessSize, e),
                   0.4 * FixedOrderFreshness(0.5, 2.0));
  EXPECT_DOUBLE_EQ(PartitionSortKey(PartitionKey::kSize, e), 2.0);
}

TEST(BuildPartitionsTest, CoversEveryElementExactlyOnce) {
  const ElementSet elements = SmallCatalog();
  for (size_t k : {1u, 2u, 3u, 4u, 6u}) {
    const auto partitions =
        BuildPartitions(elements, PartitionKey::kAccessProb, k).value();
    EXPECT_EQ(partitions.size(), k);
    std::set<size_t> seen;
    for (const auto& part : partitions) {
      for (size_t i : part.members) {
        EXPECT_TRUE(seen.insert(i).second) << "duplicate member " << i;
      }
    }
    EXPECT_EQ(seen.size(), elements.size());
  }
}

TEST(BuildPartitionsTest, SizesDifferByAtMostOne) {
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  const ElementSet elements = GenerateCatalog(spec).value();
  const auto partitions =
      BuildPartitions(elements, PartitionKey::kPerceivedFreshness, 7).value();
  size_t min_size = elements.size();
  size_t max_size = 0;
  for (const auto& part : partitions) {
    min_size = std::min(min_size, part.members.size());
    max_size = std::max(max_size, part.members.size());
  }
  EXPECT_LE(max_size - min_size, 1u);
}

TEST(BuildPartitionsTest, GroupsAreContiguousInSortedKeyOrder) {
  const ElementSet elements = SmallCatalog();
  const auto partitions =
      BuildPartitions(elements, PartitionKey::kChangeRate, 3).value();
  // Every key in partition j must be <= every key in partition j+1.
  double prev_max = -1e300;
  for (const auto& part : partitions) {
    double lo = 1e300;
    double hi = -1e300;
    for (size_t i : part.members) {
      lo = std::min(lo, elements[i].change_rate);
      hi = std::max(hi, elements[i].change_rate);
    }
    EXPECT_GE(lo, prev_max);
    prev_max = hi;
  }
}

TEST(BuildPartitionsTest, RepresentativeIsMemberMean) {
  const ElementSet elements = SmallCatalog();
  const auto partitions =
      BuildPartitions(elements, PartitionKey::kAccessProb, 2).value();
  for (const auto& part : partitions) {
    KahanSum p;
    KahanSum l;
    KahanSum s;
    for (size_t i : part.members) {
      p.Add(elements[i].access_prob);
      l.Add(elements[i].change_rate);
      s.Add(elements[i].size);
    }
    const double inv = 1.0 / static_cast<double>(part.members.size());
    EXPECT_NEAR(part.rep_access_prob, p.Total() * inv, 1e-15);
    EXPECT_NEAR(part.rep_change_rate, l.Total() * inv, 1e-15);
    EXPECT_NEAR(part.rep_size, s.Total() * inv, 1e-15);
  }
}

TEST(BuildPartitionsTest, MorePartitionsThanElementsClamps) {
  const ElementSet elements = SmallCatalog();
  const auto partitions =
      BuildPartitions(elements, PartitionKey::kAccessProb, 100).value();
  EXPECT_EQ(partitions.size(), elements.size());
  for (const auto& part : partitions) EXPECT_EQ(part.members.size(), 1u);
}

TEST(BuildPartitionsTest, RejectsBadInput) {
  EXPECT_FALSE(BuildPartitions({}, PartitionKey::kAccessProb, 3).ok());
  EXPECT_FALSE(
      BuildPartitions(SmallCatalog(), PartitionKey::kAccessProb, 0).ok());
}

TEST(TransformedProblemTest, WeightsAndCostsScaleByCount) {
  const ElementSet elements = SmallCatalog();
  const auto partitions =
      BuildPartitions(elements, PartitionKey::kAccessProb, 2).value();
  const CoreProblem problem =
      BuildTransformedProblem(partitions, 10.0, /*size_aware=*/true);
  ASSERT_EQ(problem.size(), 2u);
  for (size_t j = 0; j < 2; ++j) {
    const double n_j = static_cast<double>(partitions[j].members.size());
    EXPECT_NEAR(problem.weights[j], n_j * partitions[j].rep_access_prob,
                1e-15);
    EXPECT_NEAR(problem.costs[j], n_j * partitions[j].rep_size, 1e-15);
    EXPECT_DOUBLE_EQ(problem.change_rates[j],
                     partitions[j].rep_change_rate);
  }
  EXPECT_DOUBLE_EQ(problem.bandwidth, 10.0);
}

TEST(TransformedProblemTest, SizeBlindCostsAreCounts) {
  const ElementSet elements = SmallCatalog();
  const auto partitions =
      BuildPartitions(elements, PartitionKey::kAccessProb, 3).value();
  const CoreProblem problem =
      BuildTransformedProblem(partitions, 6.0, /*size_aware=*/false);
  for (size_t j = 0; j < partitions.size(); ++j) {
    EXPECT_DOUBLE_EQ(problem.costs[j],
                     static_cast<double>(partitions[j].members.size()));
  }
}

TEST(AllocationTest, PolicyNames) {
  EXPECT_EQ(ToString(AllocationPolicy::kFixedFrequency), "FFA");
  EXPECT_EQ(ToString(AllocationPolicy::kFixedBandwidth), "FBA");
}

TEST(AllocationTest, FfaGivesEveryMemberThePartitionFrequency) {
  const ElementSet elements = SmallCatalog();
  const auto partitions =
      BuildPartitions(elements, PartitionKey::kAccessProb, 2).value();
  const std::vector<double> part_freqs = {1.5, 0.25};
  const auto freqs = ExpandAllocation(elements, partitions, part_freqs,
                                      AllocationPolicy::kFixedFrequency)
                         .value();
  for (size_t j = 0; j < partitions.size(); ++j) {
    for (size_t i : partitions[j].members) {
      EXPECT_DOUBLE_EQ(freqs[i], part_freqs[j]);
    }
  }
}

TEST(AllocationTest, FbaEqualizesBandwidthWithinPartition) {
  const ElementSet elements = SmallCatalog();
  const auto partitions =
      BuildPartitions(elements, PartitionKey::kSize, 2).value();
  const std::vector<double> part_freqs = {2.0, 1.0};
  const auto freqs = ExpandAllocation(elements, partitions, part_freqs,
                                      AllocationPolicy::kFixedBandwidth)
                         .value();
  for (size_t j = 0; j < partitions.size(); ++j) {
    const double expected_bandwidth =
        partitions[j].rep_size * part_freqs[j];
    for (size_t i : partitions[j].members) {
      EXPECT_NEAR(freqs[i] * elements[i].size, expected_bandwidth, 1e-12);
    }
  }
}

TEST(AllocationTest, BothPoliciesPreservePartitionBandwidthTotals) {
  const ElementSet elements = SmallCatalog();
  const auto partitions =
      BuildPartitions(elements, PartitionKey::kPerceivedFreshnessSize, 3)
          .value();
  const std::vector<double> part_freqs = {1.0, 2.0, 0.5};
  for (auto policy : {AllocationPolicy::kFixedFrequency,
                      AllocationPolicy::kFixedBandwidth}) {
    const auto freqs =
        ExpandAllocation(elements, partitions, part_freqs, policy).value();
    for (size_t j = 0; j < partitions.size(); ++j) {
      double spend = 0.0;
      for (size_t i : partitions[j].members) {
        spend += freqs[i] * elements[i].size;
      }
      const double expected =
          part_freqs[j] * partitions[j].rep_size *
          static_cast<double>(partitions[j].members.size());
      EXPECT_NEAR(spend, expected, 1e-12) << ToString(policy) << " " << j;
    }
  }
}

TEST(AllocationTest, EqualSizesMakePoliciesIdentical) {
  const ElementSet elements =
      MakeElementSet({1.0, 2.0, 3.0, 4.0}, {0.25, 0.25, 0.25, 0.25});
  const auto partitions =
      BuildPartitions(elements, PartitionKey::kChangeRate, 2).value();
  const std::vector<double> part_freqs = {1.0, 3.0};
  const auto ffa = ExpandAllocation(elements, partitions, part_freqs,
                                    AllocationPolicy::kFixedFrequency)
                       .value();
  const auto fba = ExpandAllocation(elements, partitions, part_freqs,
                                    AllocationPolicy::kFixedBandwidth)
                       .value();
  for (size_t i = 0; i < elements.size(); ++i) {
    EXPECT_NEAR(ffa[i], fba[i], 1e-12);
  }
}

// The radix order must equal std::stable_sort's on keys built to stress it:
// equal keys (index order must survive), signed zeros, subnormals, the P/L
// guard value, keys that differ only below the radix digits, negatives.
std::vector<size_t> SingleRunOrder(const ElementSet& elements,
                                   PartitionKey key) {
  const auto partitions = BuildPartitions(elements, key, 1).value();
  EXPECT_EQ(partitions.size(), 1u);
  return partitions[0].members;
}

std::vector<size_t> ReferenceOrder(const ElementSet& elements,
                                   PartitionKey key) {
  std::vector<double> keys(elements.size());
  for (size_t i = 0; i < elements.size(); ++i) {
    keys[i] = PartitionSortKey(key, elements[i]);
  }
  return testing_reference::StableSortOrder(keys);
}

ElementSet WithAccessProbs(const std::vector<double>& probs) {
  ElementSet elements(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) {
    elements[i].access_prob = probs[i];
    elements[i].change_rate = 1.0;
  }
  return elements;
}

TEST(RadixOrderTest, AllKeysEqualKeepIndexOrder) {
  const ElementSet elements = WithAccessProbs(std::vector<double>(5000, 0.25));
  const std::vector<size_t> order =
      SingleRunOrder(elements, PartitionKey::kAccessProb);
  for (size_t i = 0; i < order.size(); ++i) ASSERT_EQ(order[i], i);
}

TEST(RadixOrderTest, MatchesStableSortOnAdversarialKeys) {
  constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  Rng rng(17);
  std::vector<std::vector<double>> cases;
  // Mixed signed zeros: -0.0 == +0.0, so index order among them.
  {
    std::vector<double> keys(4000);
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = rng.NextUint64Below(2) == 0 ? -0.0 : 0.0;
    }
    keys[7] = 1.0;
    cases.push_back(keys);
  }
  // Subnormals around zero and the smallest normal.
  {
    std::vector<double> keys(6000);
    for (double& key : keys) {
      const double pick[] = {0.0, -0.0, kDenormMin, 2 * kDenormMin,
                             kMinNormal - kDenormMin, kMinNormal,
                             kDenormMin * static_cast<double>(
                                              rng.NextUint64Below(1u << 20))};
      key = pick[rng.NextUint64Below(7)];
    }
    cases.push_back(keys);
  }
  // A few distinct values across ~100k elements.
  {
    std::vector<double> keys(100000);
    const double values[] = {1e-9, 0.5, 0.5000000000000001, 3.0};
    for (double& key : keys) key = values[rng.NextUint64Below(4)];
    cases.push_back(keys);
  }
  // Keys that agree in their top 33 bits and differ only below them, in
  // shuffled order; plus duplicates among them.
  {
    std::vector<double> keys(20000);
    for (double& key : keys) {
      key = 1.0 + static_cast<double>(rng.NextUint64Below(512)) * 0x1p-52;
    }
    cases.push_back(keys);
  }
  // Wide magnitudes, negatives and extremes.
  {
    std::vector<double> keys(30000);
    for (double& key : keys) {
      const double magnitude =
          std::ldexp(rng.NextDouble(), static_cast<int>(rng.NextUint64Below(
                                           2000)) - 1000);
      key = rng.NextUint64Below(4) == 0 ? -magnitude : magnitude;
    }
    keys[11] = 1e308;
    keys[12] = std::numeric_limits<double>::max();
    keys[13] = -std::numeric_limits<double>::max();
    keys[14] = -kDenormMin;
    cases.push_back(keys);
  }
  for (size_t c = 0; c < cases.size(); ++c) {
    const ElementSet elements = WithAccessProbs(cases[c]);
    EXPECT_EQ(SingleRunOrder(elements, PartitionKey::kAccessProb),
              ReferenceOrder(elements, PartitionKey::kAccessProb))
        << "case " << c;
  }
}

TEST(RadixOrderTest, ProbOverLambdaGuardKeysMatchStableSort) {
  // lambda = 0 gives the 1e308 guard key; a subnormal lambda overflows the
  // quotient, which saturates at the largest double.
  ElementSet elements(3000);
  Rng rng(5);
  for (size_t i = 0; i < elements.size(); ++i) {
    elements[i].access_prob = rng.NextDouble();
    switch (rng.NextUint64Below(4)) {
      case 0:
        elements[i].change_rate = 0.0;
        break;
      case 1:
        elements[i].change_rate = std::numeric_limits<double>::denorm_min();
        break;
      default:
        elements[i].change_rate = rng.NextDoubleIn(0.01, 10.0);
    }
  }
  elements[9].access_prob = 0.0;
  elements[9].change_rate = 0.0;
  EXPECT_EQ(PartitionSortKey(PartitionKey::kProbOverLambda, elements[9]), 0.0);
  Element zero_rate;
  zero_rate.access_prob = 0.5;
  EXPECT_EQ(PartitionSortKey(PartitionKey::kProbOverLambda, zero_rate), 1e308);
  Element tiny_rate = zero_rate;
  tiny_rate.change_rate = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(PartitionSortKey(PartitionKey::kProbOverLambda, tiny_rate),
            std::numeric_limits<double>::max());
  EXPECT_EQ(SingleRunOrder(elements, PartitionKey::kProbOverLambda),
            ReferenceOrder(elements, PartitionKey::kProbOverLambda));
}

TEST(BuildPartitionsTest, RejectsNonFiniteKeys) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    ElementSet elements = WithAccessProbs(std::vector<double>(9000, 0.1));
    elements[8000].access_prob = bad;
    elements[5000].access_prob = bad;
    for (size_t threads : {1u, 4u}) {
      const auto result =
          BuildPartitions(elements, PartitionKey::kAccessProb, 3, threads);
      ASSERT_FALSE(result.ok()) << bad;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      // The lowest offending element is named at every thread count.
      EXPECT_NE(result.status().message().find("element 5000"),
                std::string::npos)
          << result.status().ToString();
    }
  }
}

// The whole partitioning pipeline — sort-based partitions, then k-means —
// must give the reference pipeline's bytes for every key, with and without
// k-means, at every thread count.
TEST(PartitionPipelineTest, ByteIdenticalToReferenceAtEveryThreadCount) {
  ExperimentSpec spec = ExperimentSpec::BigCase();
  spec.num_objects = 20000;
  spec.size_model = SizeModel::kPareto;
  spec.seed = 99;
  const ElementSet elements = GenerateCatalog(spec).value();
  for (PartitionKey key :
       {PartitionKey::kAccessProb, PartitionKey::kChangeRate,
        PartitionKey::kProbOverLambda, PartitionKey::kPerceivedFreshness,
        PartitionKey::kPerceivedFreshnessSize, PartitionKey::kSize}) {
    const auto reference_initial =
        testing_reference::ReferenceBuildPartitions(elements, key, 50);
    for (int rounds : {0, 5}) {
      const auto reference = testing_reference::ReferenceRefine(
          elements, reference_initial, rounds);
      for (size_t threads : {1u, 2u, 4u, 8u}) {
        const auto initial =
            BuildPartitions(elements, key, 50, threads).value();
        EXPECT_TRUE(
            testing_reference::SamePartitionBytes(initial, reference_initial))
            << ToString(key) << " threads=" << threads;
        KMeansRefiner refiner(elements, {.threads = threads});
        const auto refined = refiner.Refine(initial, rounds).value();
        EXPECT_TRUE(testing_reference::SamePartitionBytes(refined, reference))
            << ToString(key) << " rounds=" << rounds
            << " threads=" << threads;
      }
    }
  }
}

TEST(AllocationTest, RejectsMalformedInput) {
  const ElementSet elements = SmallCatalog();
  const auto partitions =
      BuildPartitions(elements, PartitionKey::kAccessProb, 2).value();
  // Wrong frequency count.
  EXPECT_FALSE(ExpandAllocation(elements, partitions, {1.0},
                                AllocationPolicy::kFixedFrequency)
                   .ok());
  // Negative frequency.
  EXPECT_FALSE(ExpandAllocation(elements, partitions, {1.0, -2.0},
                                AllocationPolicy::kFixedFrequency)
                   .ok());
  // Partition that misses elements.
  std::vector<Partition> partial = {partitions[0]};
  EXPECT_FALSE(ExpandAllocation(elements, partial, {1.0},
                                AllocationPolicy::kFixedFrequency)
                   .ok());
}

}  // namespace
}  // namespace freshen
