#include "opt/scan_breakpoint.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"
#include "model/freshness_batch.h"
#include "stats/descriptive.h"

namespace freshen {
namespace {

/// Elements per batch-kernel call: 4 KiB buffers, resident in L1 alongside
/// the SoA streams.
constexpr size_t kBlock = 512;

/// Pad inputs for priced-out lanes (freshness kernel only): any mid-range
/// target with a near-root seed, so dead lanes converge immediately instead
/// of dragging their vector through cold iterations.
constexpr double kPadTarget = 0.25;
constexpr double kPadSeed = 0.85;  // ~ g^{-1}(0.25).

/// Illinois works on phi = log((spend + eps*B) / ((1+eps)*B)): log-log
/// secant (spend is near power-law in mu, so phi is near-linear in log mu)
/// with an epsilon floor so a zero spend at the top of the bracket stays
/// finite. Root location is exact: phi = 0 iff spend = B, for any eps.
double Phi(double spend, double budget) {
  constexpr double kEps = 0x1p-45;
  return std::log((spend + kEps * budget) / ((1.0 + kEps) * budget));
}

/// Surrogate histogram: 2^kSurrogateOctaveBits bins per octave of
/// target_scale, at most kSurrogateMaxBins bins, over a fixed plan of at
/// most kSurrogateMaxShards shards (the binning pass is memory-bound, and
/// every shard carries a full histogram row).
constexpr int kSurrogateOctaveBits = 6;
constexpr size_t kSurrogateMaxBins = size_t{1} << 14;
constexpr size_t kSurrogateGrain = 16384;
constexpr size_t kSurrogateMaxShards = 16;

/// The surrogate solve stops once its bracket spans 2^20 lattice steps
/// (~1.5e-5 relative), 20x finer than the binning's typical 3e-4 error; the
/// probe cap is a backstop (a capped search still returns a valid bracket
/// edge, which is all a start point needs).
constexpr uint64_t kSurrogateResolution = uint64_t{1} << 20;
constexpr int kSurrogateMaxProbes = 64;

/// A target's IEEE-754 pattern, clamped to the largest finite double so an
/// overflowed target bins into the top finite binade.
uint64_t SurrogateBits(double target) {
  return std::min(std::bit_cast<uint64_t>(target),
                  std::bit_cast<uint64_t>(
                      std::numeric_limits<double>::max()));
}

/// Where a search without a better estimate starts: the freshness solver's
/// mu_max (spend <= budget there), or 1.0 for the unbounded age multiplier.
double SearchStart(double mu_hi_hint) {
  return mu_hi_hint > 0.0 ? MuLatticeCeil(mu_hi_hint) : 1.0;
}

}  // namespace

BreakpointSpendEvaluator::BreakpointSpendEvaluator(
    Kernel kernel, const std::vector<double>& target_scale,
    const std::vector<double>& lambda, const std::vector<double>& spend_scale,
    const par::Executor* exec)
    : kernel_(kernel),
      target_scale_(target_scale),
      lambda_(lambda),
      spend_scale_(spend_scale),
      exec_(exec),
      plan_(par::ShardPlanFor(target_scale.size(), par::kTranscendentalGrain,
                              par::kTranscendentalMaxShards)),
      warm_(target_scale.size(), 0.0),
      partial_(plan_.size(), 0.0) {
  FRESHEN_CHECK(lambda_.size() == target_scale_.size());
  FRESHEN_CHECK(spend_scale_.size() == target_scale_.size());
}

double BreakpointSpendEvaluator::SpendAt(double mu) {
  const size_t n = target_scale_.size();
  if (n == 0) return 0.0;
  exec_->ForShards(plan_, [&](const par::Shard& shard) {
    KahanSum acc;
    double target[kBlock];
    double seed[kBlock];
    double root[kBlock];
    bool funded[kBlock];
    for (size_t b = shard.begin; b < shard.end; b += kBlock) {
      const size_t m = std::min(kBlock, shard.end - b);
      if (kernel_ == Kernel::kFreshnessG) {
        for (size_t j = 0; j < m; ++j) {
          const double y = mu * target_scale_[b + j];
          const bool f = y < 1.0;
          funded[j] = f;
          target[j] = f ? std::max(y, 1e-300) : kPadTarget;
          seed[j] = f ? warm_[b + j] : kPadSeed;
        }
        BatchInverseMarginalGainG(target, seed, root, m);
        for (size_t j = 0; j < m; ++j) {
          if (funded[j]) {
            // The warm root is per-element state: written only here, by the
            // owning shard, as a function of the probe sequence alone.
            warm_[b + j] = root[j];
            acc.Add(spend_scale_[b + j] / root[j]);
          } else {
            acc.Add(0.0);  // Keep the summation tree independent of mu.
          }
        }
      } else {
        for (size_t j = 0; j < m; ++j) {
          target[j] = std::max(mu * target_scale_[b + j], 1e-300);
          seed[j] = warm_[b + j];
        }
        BatchInverseAgeMarginalKernelH(target, seed, root, m);
        for (size_t j = 0; j < m; ++j) {
          warm_[b + j] = root[j];
          acc.Add(spend_scale_[b + j] / root[j]);
        }
      }
    }
    partial_[shard.index] = acc.Total();
  });
  KahanSum total;
  for (double value : partial_) total.Add(value);
  return total.Total();
}

void BreakpointSpendEvaluator::FillFrequenciesAt(
    double mu, std::vector<double>* frequencies) const {
  CaptureAt(mu, frequencies, /*contributions=*/nullptr);
}

void BreakpointSpendEvaluator::CaptureAt(
    double mu, std::vector<double>* frequencies,
    std::vector<double>* contributions) const {
  const size_t n = target_scale_.size();
  if (frequencies != nullptr) frequencies->assign(n, 0.0);
  if (contributions != nullptr) contributions->assign(n, 0.0);
  exec_->ForShards(plan_, [&](const par::Shard& shard) {
    double target[kBlock];
    double root[kBlock];
    bool funded[kBlock];
    for (size_t b = shard.begin; b < shard.end; b += kBlock) {
      const size_t m = std::min(kBlock, shard.end - b);
      if (kernel_ == Kernel::kFreshnessG) {
        for (size_t j = 0; j < m; ++j) {
          const double y = mu * target_scale_[b + j];
          funded[j] = y < 1.0;
          target[j] = funded[j] ? std::max(y, 1e-300) : kPadTarget;
        }
        BatchInverseMarginalGainG(target, /*seeds=*/nullptr, root, m);
        for (size_t j = 0; j < m; ++j) {
          if (!funded[j]) continue;
          if (frequencies != nullptr) {
            (*frequencies)[b + j] = lambda_[b + j] / root[j];
          }
          if (contributions != nullptr) {
            (*contributions)[b + j] = spend_scale_[b + j] / root[j];
          }
        }
      } else {
        for (size_t j = 0; j < m; ++j) {
          target[j] = std::max(mu * target_scale_[b + j], 1e-300);
        }
        BatchInverseAgeMarginalKernelH(target, /*seeds=*/nullptr, root, m);
        for (size_t j = 0; j < m; ++j) {
          if (frequencies != nullptr) {
            (*frequencies)[b + j] = lambda_[b + j] / root[j];
          }
          if (contributions != nullptr) {
            (*contributions)[b + j] = spend_scale_[b + j] / root[j];
          }
        }
      }
    }
  });
}

double SpendBlockPartial(const std::vector<double>& values, size_t block) {
  const size_t begin = block * kSpendBlock;
  const size_t end = std::min(values.size(), begin + kSpendBlock);
  KahanSum acc;
  for (size_t i = begin; i < end; ++i) acc.Add(values[i]);
  return acc.Total();
}

void SpendBlockPartials(const std::vector<double>& values,
                        const par::Executor* exec,
                        std::vector<double>* partials) {
  const size_t blocks = SpendBlockCount(values.size());
  partials->assign(blocks, 0.0);
  exec->ForEach(blocks, [&](size_t b) {
    (*partials)[b] = SpendBlockPartial(values, b);
  });
}

double MergeSpendBlockPartials(const std::vector<double>& partials) {
  KahanSum acc;
  for (double value : partials) acc.Add(value);
  return acc.Total();
}

namespace {

/// Counts each exact evaluation into the result's total and one stage.
class Prober {
 public:
  Prober(const std::function<double(double)>& spend_at, GridSearchResult* out)
      : spend_at_(spend_at), out_(out) {}

  double operator()(double mu, int* stage) const {
    ++out_->probes;
    ++*stage;
    return spend_at_(mu);
  }

 private:
  const std::function<double(double)>& spend_at_;
  GridSearchResult* out_;
};

/// Shared narrowing stages: Illinois secant, breakpoint scan, final lattice
/// bisection. On entry (lo, hi) is a lattice bracket with spend(lo) >
/// budget >= spend(hi); returns the upper edge once the bracket spans at
/// most `resolution` lattice steps — the flip edge (mu*) at resolution 1.
double NarrowBracketToFlip(
    const Prober& probe, double budget, double lo, double spend_lo,
    double hi, double spend_hi,
    const std::function<void(double lo, double hi, std::vector<double>*)>*
        gather_thresholds,
    int max_probes, uint64_t resolution, GridSearchResult* out) {
  // Stage 1: Illinois secant in (log mu, phi) space. Collapses the bracket
  // to a few lattice steps in ~6-10 probes where bisection needs ~36 per
  // binade.
  double t_lo = std::log(lo);
  double t_hi = std::log(hi);
  double phi_lo = Phi(spend_lo, budget);
  double phi_hi = Phi(spend_hi, budget);
  int last_side = 0;  // -1: last probe replaced lo; +1: replaced hi.
  while (MuLatticeDistance(lo, hi) > std::max<uint64_t>(8, resolution) &&
         out->probes < max_probes) {
    if (!(phi_lo > 0.0) || !(phi_hi < 0.0)) break;  // Flat side: bisect.
    const double t = t_lo - phi_lo * (t_hi - t_lo) / (phi_hi - phi_lo);
    double cand = MuLatticeRound(std::exp(t));
    const double inner_lo = MuLatticeNext(lo);
    const double inner_hi = MuLatticePrev(hi);
    if (!(cand >= inner_lo)) cand = inner_lo;
    if (!(cand <= inner_hi)) cand = inner_hi;
    const double s = probe(cand, &out->secant_probes);
    if (s > budget) {
      lo = cand;
      t_lo = std::log(cand);
      phi_lo = Phi(s, budget);
      if (last_side == -1) phi_hi *= 0.5;  // Illinois anti-stall halving.
      last_side = -1;
    } else {
      hi = cand;
      t_hi = std::log(cand);
      phi_hi = Phi(s, budget);
      if (last_side == +1) phi_lo *= 0.5;
      last_side = +1;
    }
  }

  // Stage 2: breakpoint scan. Pin the crossing between adjacent activation
  // thresholds: gather every threshold inside the band, sort (this is the
  // "sorted by activation threshold" order — only materialized for the
  // handful of elements whose cutoff lies within a few lattice steps of
  // mu*), and binary-search the flip over the thresholds' bracketing
  // lattice points with full sharded spend evaluations.
  if (gather_thresholds != nullptr &&
      MuLatticeDistance(lo, hi) > resolution) {
    std::vector<double> band;
    (*gather_thresholds)(lo, hi, &band);
    std::sort(band.begin(), band.end());
    std::vector<double> cands;
    cands.reserve(2 * band.size());
    for (double threshold : band) {
      ++out->breakpoints;
      for (double c : {MuLatticeFloor(threshold), MuLatticeCeil(threshold)}) {
        if (c > lo && c < hi) cands.push_back(c);
      }
    }
    std::sort(cands.begin(), cands.end());
    cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
    size_t a = 0;
    size_t b = cands.size();
    while (a < b && out->probes < max_probes) {
      const size_t mid = (a + b) / 2;
      if (probe(cands[mid], &out->breakpoint_probes) > budget) {
        lo = cands[mid];
        a = mid + 1;
      } else {
        hi = cands[mid];
        b = mid;
      }
    }
  }

  // Stage 3: finish with lattice bisection down to the adjacent pair.
  while (MuLatticeDistance(lo, hi) > resolution &&
         out->probes < max_probes) {
    const double mid = MuLatticeMidpoint(lo, hi);
    if (probe(mid, &out->bisection_probes) > budget) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

/// The scan-mode bracket: an elasticity-guided gallop from `start` (any
/// lattice point), then the shared narrowing stages down to `resolution`
/// lattice steps. Cold and warm searches differ only in where they start.
///
/// spend's log-log slope magnitude is bounded below by ~1/3 everywhere
/// (funding cutoffs only make spend drop FASTER as mu rises), so a probe
/// reading spend = s places the flip within mu * (s/budget)^3 of the probe
/// point. The cube is a step-size heuristic only: every jump is re-probed
/// and the loop continues until a genuine bracket exists, so a violated
/// bound costs probes, never correctness. Jumps are clamped to 40 binades
/// so extreme misses (spend off by >> 2^40, or a collapsed spend that says
/// nothing about how far down the flip sits) cannot overflow the candidate.
GridSearchResult GallopAndNarrow(
    const std::function<double(double)>& spend_at, double budget,
    double start,
    const std::function<void(double lo, double hi, std::vector<double>*)>*
        gather_thresholds,
    int max_probes, uint64_t resolution) {
  FRESHEN_CHECK(budget > 0.0);
  FRESHEN_CHECK(IsMuLatticePoint(start));
  GridSearchResult out;
  const Prober probe(spend_at, &out);
  constexpr double kMaxJump = 0x1p40;
  const double s0 = probe(start, &out.bracket_probes);
  double lo = start;
  double hi = start;
  double spend_lo = s0;
  double spend_hi = s0;
  if (s0 > budget) {
    // Flip above the start. Gallop ascending until a probe comes in
    // at/under budget (the freshness spend reaches exact 0 beyond the last
    // activation threshold and the age spend tends to 0, so this always
    // terminates).
    for (;;) {
      const double r = spend_lo / budget;
      double f = r * r * r;
      if (!(f < kMaxJump)) f = kMaxJump;
      double cand = MuLatticeCeil(lo * f);
      if (!(cand > lo)) cand = MuLatticeNext(lo);
      FRESHEN_CHECK(cand < 1e300);
      const double s = probe(cand, &out.bracket_probes);
      if (s > budget) {
        lo = cand;
        spend_lo = s;
      } else {
        hi = cand;
        spend_hi = s;
        break;
      }
    }
  } else {
    // Flip at or below the start. Gallop descending until a probe exceeds
    // budget (spend is unbounded as mu -> 0).
    for (;;) {
      const double r = spend_hi / budget;
      double f = r * r * r;
      if (!(f > 1.0 / kMaxJump)) f = 1.0 / kMaxJump;
      double cand = MuLatticeFloor(hi * f);
      if (!(cand < hi)) cand = MuLatticePrev(hi);
      FRESHEN_CHECK(cand > 0.0);
      const double s = probe(cand, &out.bracket_probes);
      if (s > budget) {
        lo = cand;
        spend_lo = s;
        break;
      }
      hi = cand;
      spend_hi = s;
    }
  }
  out.mu = NarrowBracketToFlip(probe, budget, lo, spend_lo, hi, spend_hi,
                               gather_thresholds, max_probes, resolution,
                               &out);
  return out;
}

}  // namespace

GridSearchResult SolveMultiplierOnGrid(
    const std::function<double(double)>& spend_at, double budget,
    double mu_hi_hint, MultiplierSearch mode,
    const std::function<void(double lo, double hi, std::vector<double>*)>*
        gather_thresholds,
    int max_probes) {
  FRESHEN_CHECK(budget > 0.0);
  if (mode == MultiplierSearch::kScanBreakpoint) {
    return GallopAndNarrow(spend_at, budget, SearchStart(mu_hi_hint),
                           gather_thresholds, max_probes, /*resolution=*/1);
  }

  // kBisectionOracle: a structurally independent probe path that lands on
  // the same lattice edge because the flip is unique. Upper edge: a lattice
  // point with spend <= budget. The bracket phases ignore max_probes — they
  // are bounded by the representable range of mu — so a valid (P, not-P)
  // pair always exists before the cap can bite.
  GridSearchResult out;
  const Prober probe(spend_at, &out);
  double hi = SearchStart(mu_hi_hint);
  while (probe(hi, &out.bracket_probes) > budget) {
    // Hint too low (defensive) or the unbounded age multiplier: escalate.
    // From 1.0, *4 is an exponent shift, so hi stays on-lattice.
    hi = mu_hi_hint > 0.0 ? MuLatticeCeil(hi * 2.0) : hi * 4.0;
    FRESHEN_CHECK(hi < 1e300);
  }

  // Lower edge: descend geometrically until spend exceeds budget (spend is
  // unbounded as mu -> 0, so this terminates well before underflow).
  double lo = 0.0;
  for (double x = hi;;) {
    const double cand = MuLatticeFloor(x * 0.5);  // Halving is exact.
    FRESHEN_CHECK(cand > 0.0);
    if (probe(cand, &out.bracket_probes) > budget) {
      lo = cand;
      break;
    }
    hi = cand;
    x = cand;
  }

  // Plain lattice bisection: ~36 probes per bracket binade.
  while (MuLatticeDistance(lo, hi) > 1 && out.probes < max_probes) {
    const double mid = MuLatticeMidpoint(lo, hi);
    if (probe(mid, &out.bisection_probes) > budget) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  out.mu = hi;
  return out;
}

GridSearchResult SolveMultiplierFromPrevious(
    const std::function<double(double)>& spend_at, double budget,
    double prev_mu,
    const std::function<void(double lo, double hi, std::vector<double>*)>*
        gather_thresholds,
    int max_probes) {
  return GallopAndNarrow(spend_at, budget, prev_mu, gather_thresholds,
                         max_probes, /*resolution=*/1);
}

double BreakpointSpendEvaluator::EstimateMultiplier(double budget,
                                                     double mu_hi_hint,
                                                     int* probes) const {
  *probes = 0;
  const size_t n = target_scale_.size();
  if (n == 0) return 0.0;
  const std::vector<par::Shard> plan =
      par::ShardPlanFor(n, kSurrogateGrain, kSurrogateMaxShards);

  // Pass 1: the key range. Min/max of bit patterns is order-free, so the
  // per-shard merge needs no fixed order to be exact.
  std::vector<uint64_t> shard_lo(plan.size(), ~uint64_t{0});
  std::vector<uint64_t> shard_hi(plan.size(), 0);
  exec_->ForShards(plan, [&](const par::Shard& shard) {
    uint64_t lo = ~uint64_t{0};
    uint64_t hi = 0;
    for (size_t k = shard.begin; k < shard.end; ++k) {
      const uint64_t bits = SurrogateBits(target_scale_[k]);
      lo = std::min(lo, bits);
      hi = std::max(hi, bits);
    }
    shard_lo[shard.index] = lo;
    shard_hi[shard.index] = hi;
  });
  const uint64_t bits_lo =
      *std::min_element(shard_lo.begin(), shard_lo.end());
  const uint64_t bits_hi =
      *std::max_element(shard_hi.begin(), shard_hi.end());
  int shift = 52 - kSurrogateOctaveBits;
  while ((bits_hi >> shift) - (bits_lo >> shift) + 1 > kSurrogateMaxBins) {
    ++shift;  // Halve the bins per octave until the spread fits.
  }
  const uint64_t key_base = bits_lo >> shift;
  const size_t bins = (bits_hi >> shift) - key_base + 1;

  // Pass 2: per-shard histograms of spend_scale, summed in index order and
  // merged in shard order — a summation tree fixed by n alone.
  std::vector<double> shard_hist(plan.size() * bins, 0.0);
  exec_->ForShards(plan, [&](const par::Shard& shard) {
    double* row = &shard_hist[shard.index * bins];
    for (size_t k = shard.begin; k < shard.end; ++k) {
      row[(SurrogateBits(target_scale_[k]) >> shift) - key_base] +=
          spend_scale_[k];
    }
  });
  std::vector<double> bin_target;
  std::vector<double> bin_spend;
  for (size_t b = 0; b < bins; ++b) {
    double mass = 0.0;
    for (size_t s = 0; s < plan.size(); ++s) mass += shard_hist[s * bins + b];
    if (!(mass > 0.0)) continue;
    // Bin midpoint: the key's bit range with its top dropped bit set.
    bin_target.push_back(std::bit_cast<double>(
        ((key_base + b) << shift) | (uint64_t{1} << (shift - 1))));
    bin_spend.push_back(mass);
  }
  if (bin_target.empty()) return 0.0;

  // The surrogate's own crossing, found by the same gallop and secant the
  // exact search uses (bin spends double as the unused lambda column), but
  // only to kSurrogateResolution: a bin priced out as a whole drops the
  // surrogate spend by a step that stalls the secant, and precision far
  // below the binning error buys the exact search nothing.
  BreakpointSpendEvaluator surrogate(kernel_, bin_target, bin_spend,
                                     bin_spend, exec_);
  const std::function<double(double)> spend_at = [&surrogate](double mu) {
    return surrogate.SpendAt(mu);
  };
  const GridSearchResult root = GallopAndNarrow(
      spend_at, budget, SearchStart(mu_hi_hint),
      /*gather_thresholds=*/nullptr, kSurrogateMaxProbes,
      kSurrogateResolution);
  *probes = root.probes;
  return root.mu;
}

GridSearchResult SolveMultiplierCold(
    BreakpointSpendEvaluator* eval, double budget, double mu_hi_hint,
    MultiplierSearch mode,
    const std::function<void(double lo, double hi, std::vector<double>*)>*
        gather_thresholds,
    int max_probes) {
  const std::function<double(double)> spend_at = [eval](double mu) {
    return eval->SpendAt(mu);
  };
  if (mode == MultiplierSearch::kBisectionOracle) {
    return SolveMultiplierOnGrid(spend_at, budget, mu_hi_hint, mode,
                                 gather_thresholds, max_probes);
  }
  int surrogate_probes = 0;
  const double estimate =
      eval->EstimateMultiplier(budget, mu_hi_hint, &surrogate_probes);
  const double start =
      estimate > 0.0 ? MuLatticeRound(estimate) : SearchStart(mu_hi_hint);
  GridSearchResult out =
      GallopAndNarrow(spend_at, budget, start, gather_thresholds, max_probes,
                      /*resolution=*/1);
  out.surrogate_probes = surrogate_probes;
  return out;
}

}  // namespace freshen
