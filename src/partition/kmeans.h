// k-Means refinement of an initial partitioning (§4.1.3, "An Additional
// Improvement"). Elements are points (p_i, l̂_i) where l̂ is the change rate
// normalized into [0, 1]; the distance is Euclidean (the paper's Equation 3).
// Starting from the sort-based partitions, a few Lloyd iterations "clean up"
// clustering problems and were the paper's most surprising win.
#ifndef FRESHEN_PARTITION_KMEANS_H_
#define FRESHEN_PARTITION_KMEANS_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "model/element.h"
#include "partition/partitioner.h"

namespace freshen {

/// How the change-rate coordinate is scaled before computing distances.
enum class LambdaNormalization {
  /// Divide by sum(lambda) so the coordinates sum to 1 — commensurate with
  /// the access probabilities, which also sum to 1. This is footnote 6 of
  /// the paper ("the lambda-hats are normalized so that sum = 1") and the
  /// default.
  kSumToOne,
  /// Divide by max(lambda), mapping into [0, 1]. With a skewed profile this
  /// makes the lambda axis dominate the distance (ablation A5 measures the
  /// damage).
  kMaxToOne,
  /// Use raw rates.
  kNone,
};

/// Lloyd's algorithm over (p, normalized-lambda) points.
class KMeansRefiner {
 public:
  struct Options {
    /// Change-rate scaling (see LambdaNormalization).
    LambdaNormalization lambda_normalization = LambdaNormalization::kSumToOne;
    /// Worker threads for the assignment step (0 = hardware concurrency).
    /// Purely an execution knob: each element's nearest-centroid choice is
    /// independent, so the refinement is bit-identical at every thread
    /// count (see common/parallel.h).
    size_t threads = 0;
  };

  /// Prepares the point set once; Refine() can then be called repeatedly.
  KMeansRefiner(const ElementSet& elements, Options options);

  /// Runs `iterations` Lloyd steps starting from `partitions` (each element
  /// assigned to its partition; centroids are the representatives'
  /// (p, l̂)). Empty clusters are dropped. Returns the refined partitions
  /// with recomputed representatives. Each assignment step skips the
  /// centroids that the triangle inequality proves farther than the
  /// point's own; the outcome is exactly that of scanning every centroid
  /// (keep the current one on ties, else the lowest strictly nearer index).
  Result<std::vector<Partition>> Refine(const std::vector<Partition>& initial,
                                        int iterations) const;

  /// Sum of squared distances of every element to its cluster centroid —
  /// the quantity Lloyd iterations never increase (tested invariant).
  double Distortion(const std::vector<Partition>& partitions) const;

 private:
  const ElementSet& elements_;
  size_t threads_;          // Assignment-step parallelism (resolved, >= 1).
  std::vector<double> px_;  // Access-prob coordinate per element.
  std::vector<double> lx_;  // (Normalized) change-rate coordinate.
};

}  // namespace freshen

#endif  // FRESHEN_PARTITION_KMEANS_H_
