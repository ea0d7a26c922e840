#include "partition/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace freshen {
namespace {

// Registered once; updated lock-free per Refine call.
struct KMeansMetrics {
  obs::Counter* refines;
  obs::Counter* rounds_total;
  obs::Histogram* rounds;
  obs::Gauge* centroid_movement;
  obs::Counter* points_scanned;
  obs::Counter* points_pruned;
};

const KMeansMetrics& GetKMeansMetrics() {
  static const KMeansMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return KMeansMetrics{
        registry.GetCounter("freshen_partition_kmeans_refines_total"),
        registry.GetCounter("freshen_partition_kmeans_rounds_total"),
        registry.GetHistogram("freshen_partition_kmeans_rounds",
                              obs::IterationCountBuckets()),
        registry.GetGauge("freshen_partition_kmeans_centroid_movement"),
        registry.GetCounter("freshen_partition_kmeans_points_scanned_total"),
        registry.GetCounter("freshen_partition_kmeans_points_pruned_total")};
  }();
  return metrics;
}

// Rounding margins of the assignment pruning test. A squared distance
// computed as in SquaredDistance has a relative error of at most 4 ulp
// (2^-51) plus an absolute error of at most 2^-1074 from underflow; kRel and
// kAbs exceed those by more than six orders of magnitude and also cover the
// few roundings inside the test itself. The point's own squared distance is
// rounded up by both, a centroid pair's squared half-distance down by both
// and then once more by kRel, which makes the skip strict. The test
// therefore only skips a centroid that provably cannot win, subnormal
// coordinates included.
constexpr double kRel = 1e-9;
constexpr double kAbs = std::numeric_limits<double>::min();

double SquaredDistance(double x, double y, double cx, double cy) {
  const double dx = x - cx;
  const double dy = y - cy;
  return dx * dx + dy * dy;
}

// Another centroid as seen from one centroid a: a lower bound on half their
// exact distance, squared.
struct Neighbor {
  double half_separation2;
  uint32_t index;
};

// For each centroid a, every other centroid ordered by half-separation from
// a (ties by index). A point x assigned to a can only move to a centroid j
// with d(x, a) >= d(a, j) / 2 (Elkan, ICML 2003), so a scan in this order
// stops at the first j the test rules out. half_separation2 is rounded
// down: from the computed square d2, (d2 (1 - kRel) - kAbs) bounds the exact
// square from below. A square that overflowed counts as the largest double
// (the exact square is at least that), and a NaN centroid gets 0 and is
// always scanned (it can never win a comparison anyway).
std::vector<std::vector<Neighbor>> NeighborsBySeparation(
    const std::vector<double>& cx, const std::vector<double>& cy) {
  const size_t k = cx.size();
  std::vector<std::vector<Neighbor>> neighbors(k);
  for (size_t a = 0; a < k; ++a) {
    neighbors[a].reserve(k - 1);
    for (size_t j = 0; j < k; ++j) {
      if (j == a) continue;
      const double d2 = std::min(SquaredDistance(cx[a], cy[a], cx[j], cy[j]),
                                 std::numeric_limits<double>::max());
      const double low = d2 * (1.0 - kRel) - kAbs;
      neighbors[a].push_back(
          {low > 0.0 ? 0.25 * low * (1.0 - kRel) : 0.0,
           static_cast<uint32_t>(j)});
    }
    std::sort(neighbors[a].begin(), neighbors[a].end(),
              [](const Neighbor& l, const Neighbor& r) {
                return l.half_separation2 < r.half_separation2 ||
                       (l.half_separation2 == r.half_separation2 &&
                        l.index < r.index);
              });
  }
  return neighbors;
}

}  // namespace

KMeansRefiner::KMeansRefiner(const ElementSet& elements, Options options)
    : elements_(elements), threads_(par::Executor(options.threads).threads()) {
  const size_t n = elements.size();
  px_.resize(n);
  lx_.resize(n);
  double max_l = 0.0;
  double sum_l = 0.0;
  for (size_t i = 0; i < n; ++i) {
    max_l = std::max(max_l, elements[i].change_rate);
    sum_l += elements[i].change_rate;
  }
  double l_scale = 1.0;
  switch (options.lambda_normalization) {
    case LambdaNormalization::kSumToOne:
      if (sum_l > 0.0) l_scale = 1.0 / sum_l;
      break;
    case LambdaNormalization::kMaxToOne:
      if (max_l > 0.0) l_scale = 1.0 / max_l;
      break;
    case LambdaNormalization::kNone:
      break;
  }
  for (size_t i = 0; i < n; ++i) {
    px_[i] = elements[i].access_prob;
    lx_[i] = elements[i].change_rate * l_scale;
  }
}

Result<std::vector<Partition>> KMeansRefiner::Refine(
    const std::vector<Partition>& initial, int iterations) const {
  if (initial.empty()) {
    return Status::InvalidArgument("no initial partitions");
  }
  if (iterations < 0) {
    return Status::InvalidArgument("iterations must be >= 0");
  }
  obs::ScopedSpan span("kmeans_refine");
  const size_t n = elements_.size();

  // Current assignment: element -> cluster.
  std::vector<uint32_t> assignment(n, UINT32_MAX);
  for (size_t j = 0; j < initial.size(); ++j) {
    for (size_t i : initial[j].members) {
      if (i >= n || assignment[i] != UINT32_MAX) {
        return Status::InvalidArgument(StrFormat(
            "partition %zu member %zu out of range or duplicated", j, i));
      }
      assignment[i] = static_cast<uint32_t>(j);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (assignment[i] == UINT32_MAX) {
      return Status::InvalidArgument(
          StrFormat("element %zu belongs to no partition", i));
    }
  }

  size_t k = initial.size();
  std::vector<double> cx(k), cy(k);
  std::vector<size_t> counts(k);

  // Returns the total Euclidean distance the surviving centroids moved.
  auto recompute_centroids = [&]() -> double {
    const std::vector<double> old_cx = cx;
    const std::vector<double> old_cy = cy;
    double movement = 0.0;
    std::fill(cx.begin(), cx.end(), 0.0);
    std::fill(cy.begin(), cy.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t j = assignment[i];
      cx[j] += px_[i];
      cy[j] += lx_[i];
      ++counts[j];
    }
    // Drop empty clusters by compacting ids.
    std::vector<uint32_t> remap(k, UINT32_MAX);
    size_t next = 0;
    for (size_t j = 0; j < k; ++j) {
      if (counts[j] == 0) continue;
      remap[j] = static_cast<uint32_t>(next);
      cx[next] = cx[j] / static_cast<double>(counts[j]);
      cy[next] = cy[j] / static_cast<double>(counts[j]);
      counts[next] = counts[j];
      movement += std::sqrt(
          SquaredDistance(cx[next], cy[next], old_cx[j], old_cy[j]));
      ++next;
    }
    if (next != k) {
      for (size_t i = 0; i < n; ++i) assignment[i] = remap[assignment[i]];
      k = next;
      cx.resize(k);
      cy.resize(k);
      counts.resize(k);
    }
    return movement;
  };

  recompute_centroids();  // Initial centroids; movement is meaningless here.
  const par::Executor exec(threads_);
  const std::vector<par::Shard> plan = par::ShardPlan(n);
  std::vector<uint8_t> shard_moved(plan.size(), 0);
  std::vector<size_t> shard_scanned(plan.size(), 0);
  size_t assigned = 0;
  int rounds = 0;
  double total_movement = 0.0;
  for (int iter = 0; iter < iterations; ++iter) {
    {
      obs::ScopedSpan assign_span("assign");
      const std::vector<std::vector<Neighbor>> neighbors =
          NeighborsBySeparation(cx, cy);
      // Assignment step, sharded: each element's nearest centroid depends
      // only on the (read-only) centroids, and every write lands in the
      // element's own slot — bit-identical at any thread count.
      std::fill(shard_moved.begin(), shard_moved.end(), 0);
      exec.ForShards(plan, [&](const par::Shard& shard) {
        bool moved_here = false;
        size_t scanned = 0;
        for (size_t i = shard.begin; i < shard.end; ++i) {
          const double x = px_[i];
          const double y = lx_[i];
          const uint32_t own = assignment[i];
          const double own_d2 = SquaredDistance(x, y, cx[own], cy[own]);
          // A centroid whose half-separation from `own` exceeds the point's
          // distance to `own` is strictly farther than `own` (triangle
          // inequality, with rounding margins); so is every centroid after
          // it in the list.
          const double limit = own_d2 * (1.0 + kRel) + kAbs;
          const std::vector<Neighbor>& candidates = neighbors[own];
          if (candidates.empty() || limit < candidates[0].half_separation2) {
            continue;
          }
          ++scanned;
          // Same choice as a scan of every centroid in index order: keep
          // `own` unless some centroid is strictly nearer, then the lowest
          // index among the nearest.
          uint32_t best = own;
          double best_d2 = own_d2;
          for (const Neighbor& candidate : candidates) {
            if (limit < candidate.half_separation2) break;
            const uint32_t j = candidate.index;
            const double d2 = SquaredDistance(x, y, cx[j], cy[j]);
            if (d2 < best_d2 || (d2 == best_d2 && best != own && j < best)) {
              best_d2 = d2;
              best = j;
            }
          }
          if (best != own) {
            assignment[i] = best;
            moved_here = true;
          }
        }
        shard_scanned[shard.index] += scanned;
        if (moved_here) shard_moved[shard.index] = 1;
      });
    }
    assigned += n;
    bool moved = false;
    for (uint8_t flag : shard_moved) moved |= flag != 0;
    {
      obs::ScopedSpan centroids_span("centroids");
      total_movement += recompute_centroids();
    }
    ++rounds;
    if (!moved) break;  // Converged.
  }
  size_t scanned_total = 0;
  for (size_t scanned : shard_scanned) scanned_total += scanned;
  const KMeansMetrics& metrics = GetKMeansMetrics();
  metrics.refines->Increment();
  metrics.rounds_total->Add(static_cast<double>(rounds));
  metrics.rounds->Record(static_cast<double>(rounds));
  metrics.centroid_movement->Set(total_movement);
  metrics.points_scanned->Add(static_cast<double>(scanned_total));
  metrics.points_pruned->Add(static_cast<double>(assigned - scanned_total));

  // Member lists: count, then fill in index order.
  std::vector<Partition> refined(k);
  for (size_t j = 0; j < k; ++j) refined[j].members.resize(counts[j]);
  std::vector<size_t> fill(k, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t j = assignment[i];
    refined[j].members[fill[j]++] = i;
  }
  for (Partition& part : refined) {
    RecomputeRepresentative(elements_, part);
  }
  return refined;
}

double KMeansRefiner::Distortion(
    const std::vector<Partition>& partitions) const {
  double total = 0.0;
  for (const Partition& part : partitions) {
    if (part.members.empty()) continue;
    double mx = 0.0;
    double my = 0.0;
    for (size_t i : part.members) {
      mx += px_[i];
      my += lx_[i];
    }
    mx /= static_cast<double>(part.members.size());
    my /= static_cast<double>(part.members.size());
    for (size_t i : part.members) {
      const double dx = px_[i] - mx;
      const double dy = lx_[i] - my;
      total += dx * dx + dy * dy;
    }
  }
  return total;
}

}  // namespace freshen
