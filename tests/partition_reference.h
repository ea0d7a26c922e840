// Reference implementations of the partitioning pipeline for byte-identity
// tests: the straightforward forms that the library's radix-ordered
// BuildPartitions and pruned KMeansRefiner::Refine must reproduce exactly.
//   * ReferenceBuildPartitions: std::stable_sort of indices by key.
//   * ReferenceRefine: Lloyd rounds that scan every centroid for every point.
#ifndef FRESHEN_TESTS_PARTITION_REFERENCE_H_
#define FRESHEN_TESTS_PARTITION_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "model/element.h"
#include "partition/kmeans.h"
#include "partition/partitioner.h"

namespace freshen {
namespace testing_reference {

inline std::vector<size_t> StableSortOrder(const std::vector<double>& keys) {
  std::vector<size_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return keys[a] < keys[b]; });
  return order;
}

inline std::vector<Partition> CutIntoPartitions(
    const ElementSet& elements, const std::vector<size_t>& order, size_t k) {
  const size_t n = order.size();
  k = std::min(k, n);
  std::vector<Partition> partitions(k);
  size_t cursor = 0;
  for (size_t j = 0; j < k; ++j) {
    const size_t count = n / k + (j < n % k ? 1 : 0);
    partitions[j].members.assign(order.begin() + cursor,
                                 order.begin() + cursor + count);
    cursor += count;
    RecomputeRepresentative(elements, partitions[j]);
  }
  return partitions;
}

inline std::vector<Partition> ReferenceBuildPartitions(
    const ElementSet& elements, PartitionKey key, size_t k) {
  std::vector<double> keys(elements.size());
  for (size_t i = 0; i < elements.size(); ++i) {
    keys[i] = PartitionSortKey(key, elements[i]);
  }
  return CutIntoPartitions(elements, StableSortOrder(keys), k);
}

/// Brute-force Lloyd over (p, normalized lambda): every round scans all
/// centroids for every point, keeps the current centroid on ties and
/// otherwise takes the lowest strictly nearer index; empty clusters are
/// dropped. Inputs are assumed well formed.
inline std::vector<Partition> ReferenceRefine(
    const ElementSet& elements, const std::vector<Partition>& initial,
    int iterations,
    LambdaNormalization normalization = LambdaNormalization::kSumToOne) {
  const size_t n = elements.size();
  double max_l = 0.0;
  double sum_l = 0.0;
  for (const Element& e : elements) {
    max_l = std::max(max_l, e.change_rate);
    sum_l += e.change_rate;
  }
  double l_scale = 1.0;
  if (normalization == LambdaNormalization::kSumToOne && sum_l > 0.0) {
    l_scale = 1.0 / sum_l;
  } else if (normalization == LambdaNormalization::kMaxToOne && max_l > 0.0) {
    l_scale = 1.0 / max_l;
  }
  std::vector<double> px(n), lx(n);
  for (size_t i = 0; i < n; ++i) {
    px[i] = elements[i].access_prob;
    lx[i] = elements[i].change_rate * l_scale;
  }
  std::vector<uint32_t> assignment(n);
  for (size_t j = 0; j < initial.size(); ++j) {
    for (size_t i : initial[j].members) {
      assignment[i] = static_cast<uint32_t>(j);
    }
  }
  size_t k = initial.size();
  std::vector<double> cx(k), cy(k);
  std::vector<size_t> counts(k);
  auto recompute = [&] {
    std::fill(cx.begin(), cx.end(), 0.0);
    std::fill(cy.begin(), cy.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      cx[assignment[i]] += px[i];
      cy[assignment[i]] += lx[i];
      ++counts[assignment[i]];
    }
    std::vector<uint32_t> remap(k, UINT32_MAX);
    size_t next = 0;
    for (size_t j = 0; j < k; ++j) {
      if (counts[j] == 0) continue;
      remap[j] = static_cast<uint32_t>(next);
      cx[next] = cx[j] / static_cast<double>(counts[j]);
      cy[next] = cy[j] / static_cast<double>(counts[j]);
      counts[next] = counts[j];
      ++next;
    }
    for (size_t i = 0; i < n; ++i) assignment[i] = remap[assignment[i]];
    k = next;
    cx.resize(k);
    cy.resize(k);
    counts.resize(k);
  };
  recompute();
  for (int iter = 0; iter < iterations; ++iter) {
    bool moved = false;
    for (size_t i = 0; i < n; ++i) {
      uint32_t best = assignment[i];
      double best_d2 = (px[i] - cx[best]) * (px[i] - cx[best]) +
                       (lx[i] - cy[best]) * (lx[i] - cy[best]);
      for (uint32_t j = 0; j < k; ++j) {
        const double dx = px[i] - cx[j];
        const double dy = lx[i] - cy[j];
        const double d2 = dx * dx + dy * dy;
        if (d2 < best_d2) {
          best_d2 = d2;
          best = j;
        }
      }
      if (best != assignment[i]) {
        assignment[i] = best;
        moved = true;
      }
    }
    recompute();
    if (!moved) break;
  }
  std::vector<Partition> refined(k);
  for (size_t i = 0; i < n; ++i) refined[assignment[i]].members.push_back(i);
  for (Partition& part : refined) RecomputeRepresentative(elements, part);
  return refined;
}

/// True when both partitionings have the same members in the same order
/// and bit-identical representatives.
inline bool SamePartitionBytes(const std::vector<Partition>& a,
                               const std::vector<Partition>& b) {
  if (a.size() != b.size()) return false;
  for (size_t j = 0; j < a.size(); ++j) {
    const Partition& x = a[j];
    const Partition& y = b[j];
    if (x.members != y.members) return false;
    const double xr[3] = {x.rep_access_prob, x.rep_change_rate, x.rep_size};
    const double yr[3] = {y.rep_access_prob, y.rep_change_rate, y.rep_size};
    if (std::memcmp(xr, yr, sizeof(xr)) != 0) return false;
  }
  return true;
}

}  // namespace testing_reference
}  // namespace freshen

#endif  // FRESHEN_TESTS_PARTITION_REFERENCE_H_
