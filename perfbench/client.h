// Socket clients for the serve phases.
//
// Query connections are pipelined. In an open-loop step each connection
// thread follows a pre-computed Poisson schedule, writes every request
// whose scheduled time has passed without waiting for earlier replies, and
// times each reply from the request's *scheduled* send time, so a stalled
// server (or a late generator) shows up in the latency of every request
// queued behind it. In a closed-window step each connection keeps a fixed
// number of requests outstanding, which measures saturated throughput.
// Keys and verbs come from a stream pre-sampled before the phase
// (rng/alias_table.h over the key distribution), so no sampling work sits
// on the timed path.
//
// The operator connection holds `WATCH 1` for the whole phase, the way
// `freshenctl top` does, and counts the samples it receives.
#ifndef FRESHEN_PERFBENCH_CLIENT_H_
#define FRESHEN_PERFBENCH_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "serve/daemon.h"
#include "spans.h"

namespace perfbench {

enum class Verb : uint8_t { kIsFresh, kAge, kPlan };

/// Replies within this many microseconds of their scheduled send count
/// toward StepResult::within_limit.
inline constexpr double kLatencyLimitUs = 1000.0;

/// Pre-sampled request stream: element ids and verbs (ISFRESH:AGE:PLAN =
/// 2:1:1). Connections read it from disjoint offsets and wrap around.
struct KeyStream {
  std::vector<uint32_t> ids;
  std::vector<Verb> verbs;

  /// Zipf(0.9) ids (id 0 hottest) through an alias table, or uniform ids.
  static KeyStream Make(size_t num_elements, bool uniform, size_t length,
                        uint64_t seed);
};

/// One client connection carrying pipelined queries.
struct QueryConnection {
  int fd = -1;
  /// Index of the connection (distinguishes request ids in traces).
  uint32_t index = 0;
  /// Next position in the key stream.
  size_t cursor = 0;
  /// Highest epoch seen in a reply; replies must never go below it.
  uint64_t last_epoch = 0;
  /// Set once the connection failed; later requests count as failed.
  bool dead = false;
  /// Requests made on this connection so far (for request ids).
  uint64_t made = 0;
};

/// Opens a query connection to the UNIX socket at `path`.
bool ConnectQuery(const std::string& path, uint32_t index,
                  QueryConnection* conn);
/// Sends QUIT, waits for the reply (best effort) and closes.
void CloseQuery(QueryConnection* conn);

/// One measurement step over every query connection: open loop at
/// `rate_qps`, or, when `window` > 0, closed loop with `window` requests
/// kept outstanding per connection (the server's saturated throughput).
struct StepOptions {
  double rate_qps = 0.0;
  size_t window = 0;
  double duration_seconds = 1.0;
  /// The daemon behind the socket: replies are compared with its typed
  /// queries when `check_values` (a static snapshot), and requests are
  /// replayed in-process through HandleRequestLine when tracing.
  const freshen::serve::FreshendDaemon* daemon = nullptr;
  bool check_values = false;
  /// When set, every fourth timed request records client.request /
  /// client.queue / serve.socket spans, then an in-process replay records
  /// serve.protocol and serve.snapshot_read spans under the same request
  /// id.
  SpanLog* spans = nullptr;
  uint64_t seed = 1;
};

struct StepResult {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;  // Timed correct replies / timed window.
  /// Requests on the schedule; all of them count as attempted.
  uint64_t scheduled = 0;
  uint64_t sent = 0;
  uint64_t succeeded = 0;
  /// Error replies, malformed or mismatched replies, timed-out requests,
  /// and requests lost to a dead connection.
  uint64_t failed = 0;
  /// Requests sent but not yet answered when the send window closed.
  uint64_t outstanding_at_end = 0;
  /// Requests due after the warm-up, and how many of them were answered
  /// correctly within the latency limit.
  uint64_t timed = 0;
  uint64_t within_limit = 0;
  /// Per timed reply, microseconds from scheduled send to reply.
  std::vector<double> latency_us;
  /// Per timed request, microseconds from scheduled to actual send.
  std::vector<double> generator_lag_us;
  /// Traced only: socket round trip minus in-process HandleRequestLine
  /// time of the same line, and the two in-process times.
  std::vector<double> transport_us;
  std::vector<double> protocol_us;
  std::vector<double> snapshot_read_ns;
  /// First few correctness failures (for the report).
  std::vector<std::string> errors;
};

/// Runs one step: one thread per connection, joined before returning.
StepResult RunStep(std::vector<QueryConnection>& conns, const KeyStream& keys,
                   const StepOptions& options);

/// The operator connection: a WATCH stream read on its own thread.
class WatchClient {
 public:
  WatchClient() = default;
  ~WatchClient();
  WatchClient(const WatchClient&) = delete;
  WatchClient& operator=(const WatchClient&) = delete;

  /// Connects, sends `WATCH 1` and starts the reader thread.
  bool Start(const std::string& path);
  /// Ends the stream (any client input does), collects watch_end, sends
  /// QUIT, joins the thread.
  void Stop();

  uint64_t samples() const { return samples_; }
  /// Samples that should have arrived but did not (one interval of slack).
  uint64_t missed() const;
  /// Malformed replies or decreasing epochs seen on the stream.
  uint64_t errors() const { return errors_; }
  bool saw_end() const { return saw_end_; }

 private:
  void ReaderMain();

  int fd_ = -1;
  double started_at_ = 0.0;
  double stopped_at_ = 0.0;
  std::atomic<bool> stop_{false};
  uint64_t samples_ = 0;
  uint64_t errors_ = 0;
  bool saw_end_ = false;
  std::thread reader_;
};

}  // namespace perfbench

#endif  // FRESHEN_PERFBENCH_CLIENT_H_
