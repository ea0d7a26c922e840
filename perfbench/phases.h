// The three phases every run executes, each named after the deployment it
// reproduces:
//   serve_read   N = 1,000,000 catalog saved and loaded as FRSHCAT1; the
//                daemon's loop never starts, so every read hits the static
//                epoch-1 snapshot.
//   serve_churn  N = 20,000, B = 5,000, 5,000 accesses per period; the
//                loop runs wall-paced at 1 s per period (full replan every
//                period) while the same clients read.
//   plan_big     the paper's Table 3 Big Case planned exactly, partitioned,
//                and incrementally under 0.1% churn.
//
// A run sets every phase up, then interleaves them in rounds (one slice of
// each phase per round) so that every metric samples the whole run rather
// than one stretch of it. Phases
// prefix their end-to-end metrics with their name and, in a traced run,
// add per-layer metrics.
#ifndef FRESHEN_PERFBENCH_PHASES_H_
#define FRESHEN_PERFBENCH_PHASES_H_

#include <memory>

#include "common.h"
#include "spans.h"

namespace perfbench {

class Phase {
 public:
  virtual ~Phase() = default;
  /// Builds the deployment (repeatedly, keeping the last) and returns the
  /// median set-up seconds. A failure is recorded as a failed check.
  virtual double SetUp() = 0;
  /// One measured slice, `round` counting from 0.
  virtual void Round(int round) = 0;
  /// Final checks and metrics; releases the deployment.
  virtual void Finish() = 0;
};

/// A serve_read round takes about 1.6 s and a serve_churn round 3.6 s;
/// `rounds` is the number the run will execute.
std::unique_ptr<Phase> MakeServeRead(const RunConfig& config, int rounds,
                                     SpanLog* spans, Report* report);
std::unique_ptr<Phase> MakeServeChurn(const RunConfig& config, int rounds,
                                      SpanLog* spans, Report* report);
/// `round_seconds` is the wall time one plan_big round fills.
std::unique_ptr<Phase> MakePlanBig(const RunConfig& config,
                                   double round_seconds, SpanLog* spans,
                                   Report* report);

}  // namespace perfbench

#endif  // FRESHEN_PERFBENCH_PHASES_H_
