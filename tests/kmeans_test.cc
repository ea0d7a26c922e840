// Tests for the k-means partition refiner: invariants (coverage, distortion
// never increases), convergence, empty-cluster handling, and the refinement
// actually improving the freshening objective on a realistic workload.
#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "core/planner.h"
#include "model/element.h"
#include "obs/metrics.h"
#include "partition/kmeans.h"
#include "partition/partitioner.h"
#include "partition_reference.h"
#include "rng/rng.h"
#include "workload/generator.h"

namespace freshen {
namespace {

ElementSet TestCatalog(size_t n = 200) {
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.num_objects = n;
  spec.alignment = Alignment::kShuffled;
  return GenerateCatalog(spec).value();
}

TEST(KMeansTest, ZeroIterationsPreservesPartitions) {
  const ElementSet elements = TestCatalog();
  const auto initial =
      BuildPartitions(elements, PartitionKey::kPerceivedFreshness, 10).value();
  KMeansRefiner refiner(elements, {});
  const auto refined = refiner.Refine(initial, 0).value();
  ASSERT_EQ(refined.size(), initial.size());
  for (size_t j = 0; j < initial.size(); ++j) {
    EXPECT_EQ(refined[j].members.size(), initial[j].members.size());
  }
}

TEST(KMeansTest, EveryElementStaysCoveredExactlyOnce) {
  const ElementSet elements = TestCatalog();
  const auto initial =
      BuildPartitions(elements, PartitionKey::kAccessProb, 12).value();
  KMeansRefiner refiner(elements, {});
  const auto refined = refiner.Refine(initial, 5).value();
  std::set<size_t> seen;
  for (const auto& part : refined) {
    EXPECT_FALSE(part.members.empty());
    for (size_t i : part.members) {
      EXPECT_TRUE(seen.insert(i).second);
    }
  }
  EXPECT_EQ(seen.size(), elements.size());
}

TEST(KMeansTest, DistortionNeverIncreasesWithIterations) {
  const ElementSet elements = TestCatalog(400);
  const auto initial =
      BuildPartitions(elements, PartitionKey::kPerceivedFreshness, 15).value();
  KMeansRefiner refiner(elements, {});
  double prev = refiner.Distortion(initial);
  for (int iters : {1, 2, 3, 5, 8}) {
    const auto refined = refiner.Refine(initial, iters).value();
    const double cur = refiner.Distortion(refined);
    EXPECT_LE(cur, prev + 1e-12) << "iters=" << iters;
    prev = cur;
  }
}

TEST(KMeansTest, ConvergesOnSeparatedClusters) {
  // Two well-separated blobs must be recovered regardless of a bad start.
  ElementSet elements;
  for (int i = 0; i < 20; ++i) {
    Element e;
    e.access_prob = 0.001 + 1e-6 * i;
    e.change_rate = 1.0 + 1e-3 * i;
    elements.push_back(e);
  }
  for (int i = 0; i < 20; ++i) {
    Element e;
    e.access_prob = 0.049 - 1e-6 * i;
    e.change_rate = 9.0 - 1e-3 * i;
    elements.push_back(e);
  }
  // Bad but non-degenerate initial split: 30 / 10. (A perfectly symmetric
  // interleaved split would give both clusters identical centroids — a
  // stationary point Lloyd correctly never leaves.)
  std::vector<Partition> initial(2);
  for (size_t i = 0; i < elements.size(); ++i) {
    initial[i < 30 ? 0 : 1].members.push_back(i);
  }
  for (auto& part : initial) RecomputeRepresentative(elements, part);

  KMeansRefiner refiner(elements, {});
  const auto refined = refiner.Refine(initial, 20).value();
  ASSERT_EQ(refined.size(), 2u);
  // Each cluster should be one blob: all members on the same side.
  for (const auto& part : refined) {
    const bool first_low = part.members[0] < 20;
    for (size_t i : part.members) {
      EXPECT_EQ(i < 20, first_low);
    }
  }
}

TEST(KMeansTest, RefinementImprovesPerceivedFreshness) {
  // The paper's headline §4.1.3 result: a few iterations of k-means on top
  // of PF-partitioning improve perceived freshness.
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.alignment = Alignment::kShuffled;
  const ElementSet elements = GenerateCatalog(spec).value();

  PlannerOptions base;
  base.mode = PlanMode::kPartitioned;
  base.partition_key = PartitionKey::kPerceivedFreshness;
  base.num_partitions = 20;
  base.kmeans_iterations = 0;
  const double pf0 = FreshenPlanner(base)
                         .Plan(elements, spec.syncs_per_period)
                         .value()
                         .perceived_freshness;

  base.kmeans_iterations = 10;
  const double pf10 = FreshenPlanner(base)
                          .Plan(elements, spec.syncs_per_period)
                          .value()
                          .perceived_freshness;
  EXPECT_GT(pf10, pf0);
}

TEST(KMeansTest, RejectsMalformedInitialPartitions) {
  const ElementSet elements = TestCatalog(50);
  KMeansRefiner refiner(elements, {});
  EXPECT_FALSE(refiner.Refine({}, 3).ok());

  // Duplicated member.
  std::vector<Partition> dup(1);
  dup[0].members = {0, 0};
  EXPECT_FALSE(refiner.Refine(dup, 1).ok());

  // Missing members.
  std::vector<Partition> partial(1);
  partial[0].members = {0, 1, 2};
  EXPECT_FALSE(refiner.Refine(partial, 1).ok());

  const auto initial =
      BuildPartitions(elements, PartitionKey::kAccessProb, 4).value();
  EXPECT_FALSE(refiner.Refine(initial, -1).ok());
}

TEST(KMeansTest, NormalizationOptionChangesClustering) {
  // With raw lambda (no normalization) the lambda axis dominates; the
  // option must have an observable effect on some workload.
  const ElementSet elements = TestCatalog(300);
  const auto initial =
      BuildPartitions(elements, PartitionKey::kAccessProb, 8).value();
  KMeansRefiner sum_norm(
      elements, {.lambda_normalization = LambdaNormalization::kSumToOne});
  KMeansRefiner raw(elements,
                    {.lambda_normalization = LambdaNormalization::kNone});
  const auto a = sum_norm.Refine(initial, 5).value();
  const auto b = raw.Refine(initial, 5).value();
  // Compare the multisets of cluster sizes; they should differ.
  std::multiset<size_t> sizes_a;
  std::multiset<size_t> sizes_b;
  for (const auto& part : a) sizes_a.insert(part.members.size());
  for (const auto& part : b) sizes_b.insert(part.members.size());
  EXPECT_NE(sizes_a, sizes_b);
}

// Points given directly as (p, lambda) coordinates; with kNone the k-means
// plane is exactly these values.
Element Point(double x, double y) {
  Element e;
  e.access_prob = x;
  e.change_rate = y;
  return e;
}

std::vector<Partition> Groups(const ElementSet& elements,
                              const std::vector<std::vector<size_t>>& groups) {
  std::vector<Partition> partitions(groups.size());
  for (size_t j = 0; j < groups.size(); ++j) {
    partitions[j].members = groups[j];
    RecomputeRepresentative(elements, partitions[j]);
  }
  return partitions;
}

// The pruned assignment must equal the brute-force scan after every round,
// at several thread counts.
void ExpectPrunedMatchesBruteForce(const ElementSet& elements,
                                   const std::vector<Partition>& initial,
                                   int max_rounds, const char* label) {
  for (int rounds = 0; rounds <= max_rounds; ++rounds) {
    const auto reference = testing_reference::ReferenceRefine(
        elements, initial, rounds, LambdaNormalization::kNone);
    for (size_t threads : {1u, 4u}) {
      KMeansRefiner refiner(
          elements, {.lambda_normalization = LambdaNormalization::kNone,
                     .threads = threads});
      const auto refined = refiner.Refine(initial, rounds).value();
      EXPECT_TRUE(testing_reference::SamePartitionBytes(refined, reference))
          << label << " rounds=" << rounds << " threads=" << threads;
    }
  }
}

TEST(KMeansPruningTest, DuplicatePoints) {
  ElementSet elements;
  std::vector<std::vector<size_t>> groups(3);
  for (size_t i = 0; i < 300; ++i) {
    const double spots[][2] = {{0.1, 0.2}, {0.1, 0.2}, {0.3, 0.2}, {0.9, 0.9}};
    const auto& spot = spots[i % 4];
    elements.push_back(Point(spot[0], spot[1]));
    groups[i % 3].push_back(i);
  }
  ExpectPrunedMatchesBruteForce(elements, Groups(elements, groups), 6,
                                "duplicates");
}

TEST(KMeansPruningTest, PointsEquidistantFromTwoCentroids) {
  // Centroids at (2, 1) and (6, 1); points at x = 4 are equidistant from
  // both. Members of either keep their centroid; members of the far third
  // cluster, centred at (100, 1), must take the lower index, 0.
  ElementSet elements = {Point(0, 1), Point(4, 1), Point(2, 1),
                         Point(4, 1), Point(8, 1), Point(6, 1),
                         Point(4, 3), Point(4, -1), Point(196, 1),
                         Point(4, 1), Point(4, 2)};
  const auto initial =
      Groups(elements, {{0, 1, 2, 6}, {3, 4, 5, 7}, {8, 9, 10}});
  ExpectPrunedMatchesBruteForce(elements, initial, 4, "equidistant");
  // A fourth cluster wholly at x = 4 in between keeps its members.
  elements.push_back(Point(4, 1));
  elements.push_back(Point(4, 1));
  ExpectPrunedMatchesBruteForce(
      elements, Groups(elements, {{0, 1, 2, 6}, {3, 4, 5, 7}, {8, 9, 10},
                                  {11, 12}}),
      4, "equidistant with a coincident point cluster");
}

TEST(KMeansPruningTest, CoincidentCentroids) {
  // Clusters 0 and 1 share the centroid (2, 1): their half-separation is
  // zero, so nothing near them may be pruned.
  ElementSet elements = {Point(1, 1), Point(3, 1), Point(2, 0), Point(2, 2),
                         Point(2, 1), Point(2.5, 1), Point(9, 9),
                         Point(8, 9), Point(2, 1)};
  const auto initial =
      Groups(elements, {{0, 1, 8}, {2, 3, 4}, {5, 6, 7}});
  ExpectPrunedMatchesBruteForce(elements, initial, 5, "coincident");
}

TEST(KMeansPruningTest, ClusterEmptiedAndDroppedMidRun) {
  // Cluster 1's two members sit far from their own centroid (5, 1) and next
  // to clusters 0 and 2, so round 1 empties it and it is dropped; the
  // remaining rounds run with renumbered centroids.
  ElementSet elements = {Point(-1, 1),  Point(-0.5, 1), Point(-1.5, 1),
                         Point(0, 1),   Point(10, 1),   Point(11, 1),
                         Point(10.5, 1), Point(11.5, 1), Point(20, 1),
                         Point(21, 1)};
  const auto initial = Groups(elements, {{0, 1, 2}, {3, 4}, {5, 6, 7}, {8, 9}});
  KMeansRefiner refiner(elements,
                        {.lambda_normalization = LambdaNormalization::kNone});
  EXPECT_EQ(refiner.Refine(initial, 3).value().size(), 3u);
  ExpectPrunedMatchesBruteForce(elements, initial, 4, "dropped");
}

TEST(KMeansPruningTest, SubnormalCoordinates) {
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  Rng rng(3);
  ElementSet elements;
  std::vector<std::vector<size_t>> groups(6);
  for (size_t i = 0; i < 600; ++i) {
    // Some points entirely subnormal, some a subnormal away from a normal
    // coordinate, some at zero.
    const double a = kTiny * static_cast<double>(rng.NextUint64Below(64));
    const double b = kTiny * static_cast<double>(rng.NextUint64Below(64));
    switch (i % 3) {
      case 0:
        elements.push_back(Point(a, b));
        break;
      case 1:
        elements.push_back(Point(std::numeric_limits<double>::min() + a, b));
        break;
      default:
        elements.push_back(Point(0.0, a));
    }
    groups[rng.NextUint64Below(6)].push_back(i);
  }
  ExpectPrunedMatchesBruteForce(elements, Groups(elements, groups), 6,
                                "subnormal");
}

TEST(KMeansPruningTest, RandomPointSetsAtManyScales) {
  Rng rng(11);
  // Unit coordinates, squares near the bottom of the normal range, squares
  // that underflow into subnormals, and squares that overflow to infinity.
  const int exponents[] = {0, -500, -530, 508};
  for (int trial = 0; trial < 16; ++trial) {
    const double scale = std::ldexp(1.0, exponents[trial % 4]);
    const size_t n = 500 + rng.NextUint64Below(6000);
    const size_t k = 2 + rng.NextUint64Below(40);
    ElementSet elements;
    std::vector<std::vector<size_t>> groups(k);
    for (size_t i = 0; i < n; ++i) {
      // Coarse coordinates make exact ties common.
      const double x = scale * static_cast<double>(rng.NextUint64Below(40));
      const double y = scale * static_cast<double>(rng.NextUint64Below(40));
      elements.push_back(Point(x, y));
      groups[i < k ? i : rng.NextUint64Below(k)].push_back(i);
    }
    ExpectPrunedMatchesBruteForce(elements, Groups(elements, groups), 5,
                                  "random");
  }
}

// Point q belongs to cluster a = {w, q}; cluster r sits at
// 2q - a + eta (a - q), the reflection of a's centroid through q pulled in
// by eta, so q is about as near to r as to a and about half of |a - r| from
// a. Rounding then decides which side of the pruning test q falls on, and
// only the margins keep the test from skipping r when r wins. Cluster t,
// nearer to a on the far side, makes r the second centroid scanned.
void CheckNearTie(Rng& rng, double scale, double spread, double eta,
                  bool with_t, size_t lowest) {
  const Element w = Point(-2.0 * scale * rng.NextDoubleIn(0.1, 1.0),
                          -2.0 * scale * rng.NextDoubleIn(-1.0, 1.0));
  const Element q = Point(scale * rng.NextDoubleIn(-spread, spread),
                          scale * rng.NextDoubleIn(-spread, spread));
  // a's centroid exactly as Refine computes it: (0 + w + q) / 2.
  const double ax = (w.access_prob + q.access_prob) / 2.0;
  const double ay = (w.change_rate + q.change_rate) / 2.0;
  const Element r =
      Point(2.0 * q.access_prob - ax + eta * (ax - q.access_prob),
            2.0 * q.change_rate - ay + eta * (ay - q.change_rate));
  ElementSet elements = {w, q, r, r};
  std::vector<std::vector<size_t>> groups = {{0, 1}, {2, 3}};
  if (with_t) {
    const Element t = Point(ax - 0.6 * (r.access_prob - ax),
                            ay - 0.6 * (r.change_rate - ay));
    elements.push_back(t);
    elements.push_back(t);
    groups.push_back({4, 5});
  }
  // Vary which cluster holds the lowest index.
  std::swap(groups[0], groups[lowest % groups.size()]);
  ExpectPrunedMatchesBruteForce(elements, Groups(elements, groups), 1,
                                "near tie");
}

TEST(KMeansPruningTest, NearTiesAtTheHalfSeparation) {
  // Normal range: the exact reflection (eta = 0) through a q near the
  // origin, so relative rounding decides. Needs the relative margin.
  Rng rng(23);
  for (int trial = 0; trial < 8000; ++trial) {
    CheckNearTie(rng, 1.0, std::ldexp(1.0, -10 - 10 * (trial % 4)), 0.0,
                 trial % 2 == 1, trial);
  }
  // Squared distances of about 2^-1066, subnormal with ~8 significant
  // bits, and eta at that resolution: underflow decides. Needs the
  // absolute margin.
  for (int trial = 0; trial < 30000; ++trial) {
    CheckNearTie(rng, std::ldexp(1.0, -533), 0.01,
                 std::ldexp(rng.NextDouble(), -7), trial % 2 == 1, trial);
  }
}

TEST(KMeansPruningTest, CountsScannedAndPrunedPoints) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* scanned =
      registry.GetCounter("freshen_partition_kmeans_points_scanned_total");
  obs::Counter* pruned =
      registry.GetCounter("freshen_partition_kmeans_points_pruned_total");
  const double scanned_before = scanned->value();
  const double pruned_before = pruned->value();
  // Two far-apart tight blobs: every point is provably nearest its own
  // centroid, so a round prunes them all.
  ElementSet elements;
  for (int i = 0; i < 50; ++i) elements.push_back(Point(0.001 * i, 0.0));
  for (int i = 0; i < 50; ++i) elements.push_back(Point(100 + 0.001 * i, 0));
  std::vector<std::vector<size_t>> groups(2);
  for (size_t i = 0; i < 100; ++i) groups[i / 50].push_back(i);
  KMeansRefiner refiner(elements,
                        {.lambda_normalization = LambdaNormalization::kNone});
  const auto refined = refiner.Refine(Groups(elements, groups), 3).value();
  EXPECT_EQ(refined.size(), 2u);
  // Converged after one round: 100 point decisions, all pruned.
  EXPECT_EQ(pruned->value() - pruned_before, 100.0);
  EXPECT_EQ(scanned->value() - scanned_before, 0.0);
}

}  // namespace
}  // namespace freshen
