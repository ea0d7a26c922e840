// The paper's §3 scaling heuristics, step 1: divide the N elements into K
// partitions of similar elements, so the optimization runs over K
// representatives instead of N variables.
//
// All sort-based techniques work the same way: sort all elements by a key,
// then cut the sorted order into K contiguous runs of ~N/K elements. The
// paper defines four keys (§3.1) plus two size-aware ones (§5.2):
//   P     : access probability p
//   LAMBDA: change rate lambda
//   P/L   : p / lambda
//   PF    : perceived freshness p * F(f0, lambda) at a fixed frequency f0=1
//   PF/S  : p * F(f0 / s, lambda) — PF with the fixed bandwidth spread over
//           the object's size (§5.2, "PF/s-Partitioning")
//   SIZE  : object size s (§5.3 mentions ordering by size for completeness)
#ifndef FRESHEN_PARTITION_PARTITIONER_H_
#define FRESHEN_PARTITION_PARTITIONER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "model/element.h"

namespace freshen {

/// Sorting keys for the partitioning techniques.
enum class PartitionKey {
  kAccessProb,             // P-Partitioning.
  kChangeRate,             // Lambda-Partitioning.
  kProbOverLambda,         // P/Lambda-Partitioning.
  kPerceivedFreshness,     // PF-Partitioning.
  kPerceivedFreshnessSize, // PF/s-Partitioning (variable sizes).
  kSize,                   // Size-Partitioning.
};

/// Short display name, e.g. "PF_PARTITIONING".
std::string ToString(PartitionKey key);

/// The fixed synchronization frequency used inside the PF sorting key. The
/// paper: "The exact synchronization frequency used in our calculations is
/// not important. We use a synchronization frequency of 1.0."
inline constexpr double kPfKeyFrequency = 1.0;

/// A group of similar elements plus its representative (§3.2): the
/// representative's p and lambda are the means over members; mean size is
/// kept for the size-aware constraint.
struct Partition {
  /// Member element indices (into the original ElementSet).
  std::vector<size_t> members;
  /// Representative access probability (mean of members').
  double rep_access_prob = 0.0;
  /// Representative change rate (mean of members').
  double rep_change_rate = 0.0;
  /// Representative size (mean of members').
  double rep_size = 1.0;
};

/// Computes the sort key of one element.
double PartitionSortKey(PartitionKey key, const Element& element);

/// Sorts elements by `key` and cuts them into `num_partitions` contiguous
/// groups of near-equal size ("All elements are sorted. Then N/K successive
/// elements are assigned to a partition."). num_partitions is clamped to N.
/// Equal keys keep index order (-0.0 equals +0.0), so the order is exactly a
/// stable sort's; it is computed by an LSD radix sort on the keys' bits.
/// Fails when elements is empty, num_partitions is 0, or any element's key
/// is NaN or infinite. Representatives are filled in. `threads` runs the key
/// pass (0 = hardware concurrency); the result is byte-identical at every
/// thread count.
Result<std::vector<Partition>> BuildPartitions(const ElementSet& elements,
                                               PartitionKey key,
                                               size_t num_partitions,
                                               size_t threads = 0);

/// Recomputes a partition's representative from its members (used after
/// k-means moves elements around).
void RecomputeRepresentative(const ElementSet& elements, Partition& partition);

}  // namespace freshen

#endif  // FRESHEN_PARTITION_PARTITIONER_H_
