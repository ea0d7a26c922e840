#include "partition/partitioner.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/macros.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "model/freshness.h"
#include "obs/trace.h"
#include "stats/descriptive.h"

namespace freshen {

std::string ToString(PartitionKey key) {
  switch (key) {
    case PartitionKey::kAccessProb:
      return "P_PARTITIONING";
    case PartitionKey::kChangeRate:
      return "LAMBDA_PARTITIONING";
    case PartitionKey::kProbOverLambda:
      return "P_OVER_LAMBDA_PARTITIONING";
    case PartitionKey::kPerceivedFreshness:
      return "PF_PARTITIONING";
    case PartitionKey::kPerceivedFreshnessSize:
      return "PF_OVER_S_PARTITIONING";
    case PartitionKey::kSize:
      return "SIZE_PARTITIONING";
  }
  return "UNKNOWN_PARTITIONING";
}

double PartitionSortKey(PartitionKey key, const Element& element) {
  switch (key) {
    case PartitionKey::kAccessProb:
      return element.access_prob;
    case PartitionKey::kChangeRate:
      return element.change_rate;
    case PartitionKey::kProbOverLambda:
      // Guard lambda = 0: such an element is maximally attractive per unit
      // of bandwidth "cost"; a huge finite key sorts it to the edge. A
      // quotient that overflows (subnormal lambda) saturates at the largest
      // double instead, so finite p and lambda always give a finite key.
      if (element.change_rate > 0.0) {
        const double ratio = element.access_prob / element.change_rate;
        return ratio == std::numeric_limits<double>::infinity() &&
                       std::isfinite(element.access_prob)
                   ? std::numeric_limits<double>::max()
                   : ratio;
      }
      return element.access_prob > 0.0 ? 1e308 : 0.0;
    case PartitionKey::kPerceivedFreshness:
      return element.access_prob *
             FixedOrderFreshness(kPfKeyFrequency, element.change_rate);
    case PartitionKey::kPerceivedFreshnessSize: {
      // One unit of bandwidth buys only 1/s syncs of an object of size s.
      FRESHEN_DCHECK(element.size > 0.0);
      const double f = kPfKeyFrequency / element.size;
      // r = lambda / f rounds to 0 for a subnormal size (f = inf) or an
      // underflowing lambda * s, where (1 - e^-r) / r would be 0/0: take
      // its r -> 0 limit, freshness 1, so the key stays finite.
      if (element.change_rate / f == 0.0) return element.access_prob;
      return element.access_prob *
             FixedOrderFreshness(f, element.change_rate);
    }
    case PartitionKey::kSize:
      return element.size;
  }
  return 0.0;
}

void RecomputeRepresentative(const ElementSet& elements,
                             Partition& partition) {
  FRESHEN_CHECK(!partition.members.empty());
  KahanSum p_sum;
  KahanSum l_sum;
  KahanSum s_sum;
  for (size_t i : partition.members) {
    p_sum.Add(elements[i].access_prob);
    l_sum.Add(elements[i].change_rate);
    s_sum.Add(elements[i].size);
  }
  const double inv = 1.0 / static_cast<double>(partition.members.size());
  partition.rep_access_prob = p_sum.Total() * inv;
  partition.rep_change_rate = l_sum.Total() * inv;
  partition.rep_size = s_sum.Total() * inv;
}

namespace {

/// The radix passes order the keys by their top 33 bits (sign, exponent and
/// 21 significand bits; relative resolution 2^-21) in three 11-bit digits,
/// each with a 2048-bucket histogram small enough to stay in L1. Keys that
/// still tie on those bits are rare and are ordered afterwards.
constexpr int kDigitBits = 11;
constexpr int kDigits = 3;
constexpr int kRadixLowBit = 64 - kDigits * kDigitBits;
constexpr size_t kBuckets = size_t{1} << kDigitBits;

/// A sort key's order-preserving bit pattern and its element index.
struct KeyedIndex {
  uint64_t bits;
  size_t index;
};

/// Maps a finite double to an unsigned integer whose order is the double's
/// `<` order: -0.0 first becomes +0.0 (the two compare equal), then a
/// non-negative value gets its sign bit set and a negative one has every
/// bit flipped.
uint64_t OrderedBits(double key) {
  if (key == 0.0) key = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &key, sizeof(bits));
  constexpr uint64_t kSign = uint64_t{1} << 63;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

size_t Digit(uint64_t bits, int digit) {
  return static_cast<size_t>(bits >> (kRadixLowBit + digit * kDigitBits)) &
         (kBuckets - 1);
}

bool BitsThenIndex(const KeyedIndex& a, const KeyedIndex& b) {
  return a.bits < b.bits || (a.bits == b.bits && a.index < b.index);
}

/// Sorts `items`, given in index order, by (bits, index): the order
/// std::stable_sort gives the keys under `<`. Stable LSD radix passes order
/// them by the top bits, keeping index order among equal top bits; a digit
/// in which no key varies moves nothing and is skipped. Each remaining run
/// of equal top bits is then sorted by the full bits, unless it is already
/// in order (as runs of equal keys are).
void SortByBitsThenIndex(std::vector<KeyedIndex>& items) {
  const size_t n = items.size();
  std::array<std::array<size_t, kBuckets>, kDigits> counts{};
  for (const KeyedIndex& item : items) {
    for (int d = 0; d < kDigits; ++d) ++counts[d][Digit(item.bits, d)];
  }
  std::vector<KeyedIndex> scratch;
  for (int d = 0; d < kDigits; ++d) {
    std::array<size_t, kBuckets>& offsets = counts[d];
    if (offsets[Digit(items[0].bits, d)] == n) continue;
    size_t next = 0;
    for (size_t& slot : offsets) {
      const size_t count = slot;
      slot = next;
      next += count;
    }
    scratch.resize(n);
    for (const KeyedIndex& item : items) {
      scratch[offsets[Digit(item.bits, d)]++] = item;
    }
    items.swap(scratch);
  }
  for (size_t begin = 0; begin < n;) {
    const uint64_t top = items[begin].bits >> kRadixLowBit;
    size_t end = begin + 1;
    while (end < n && items[end].bits >> kRadixLowBit == top) ++end;
    if (!std::is_sorted(items.begin() + begin, items.begin() + end,
                        BitsThenIndex)) {
      std::sort(items.begin() + begin, items.begin() + end, BitsThenIndex);
    }
    begin = end;
  }
}

}  // namespace

Result<std::vector<Partition>> BuildPartitions(const ElementSet& elements,
                                               PartitionKey key,
                                               size_t num_partitions,
                                               size_t threads) {
  if (elements.empty()) {
    return Status::InvalidArgument("cannot partition an empty element set");
  }
  if (num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  obs::ScopedSpan span("partition");
  const size_t n = elements.size();
  const size_t k = std::min(num_partitions, n);
  const par::Executor exec(threads);

  // Keys on the fixed shard plan; each shard notes its first non-finite key
  // so the lowest such element is reported at any thread count.
  std::vector<KeyedIndex> items(n);
  {
    obs::ScopedSpan keys_span("keys");
    const std::vector<par::Shard> plan = par::ShardPlan(n);
    std::vector<size_t> first_bad(plan.size(), n);
    exec.ForShards(plan, [&](const par::Shard& shard) {
      for (size_t i = shard.begin; i < shard.end; ++i) {
        const double value = PartitionSortKey(key, elements[i]);
        if (!std::isfinite(value)) {
          first_bad[shard.index] = i;
          return;
        }
        items[i] = {OrderedBits(value), i};
      }
    });
    for (size_t bad : first_bad) {
      if (bad == n) continue;
      return Status::InvalidArgument(StrFormat(
          "element %zu has non-finite %s key %g", bad, ToString(key).c_str(),
          PartitionSortKey(key, elements[bad])));
    }
  }
  {
    obs::ScopedSpan sort_span("sort");
    SortByBitsThenIndex(items);
  }

  // Cut into k contiguous runs; the first (n % k) runs get one extra member
  // so sizes differ by at most one. Each partition's members and
  // representative depend only on its own run, so the runs fill in parallel
  // (allocated here, on the calling thread).
  std::vector<Partition> partitions(k);
  const size_t base = n / k;
  const size_t extra = n % k;
  for (size_t j = 0; j < k; ++j) {
    partitions[j].members.resize(base + (j < extra ? 1 : 0));
  }
  exec.ForShards(par::ShardPlanFor(k, 1, k), [&](const par::Shard& shard) {
    const size_t j = shard.index;
    const size_t begin = j * base + std::min(j, extra);
    std::vector<size_t>& members = partitions[j].members;
    for (size_t m = 0; m < members.size(); ++m) {
      members[m] = items[begin + m].index;
    }
    RecomputeRepresentative(elements, partitions[j]);
  });
  return partitions;
}

}  // namespace freshen
