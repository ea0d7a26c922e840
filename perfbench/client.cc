#include "client.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common.h"
#include "rng/alias_table.h"
#include "rng/distributions.h"
#include "rng/rng.h"
#include "rng/zipf.h"
#include "serve/protocol.h"

namespace perfbench {

using freshen::serve::FreshendDaemon;

namespace {

constexpr size_t kMaxErrors = 8;
// A traced step records spans for every fourth timed request.
constexpr size_t kTraceEvery = 4;
// Requests due in a step's first 100 ms are sent but not timed.
constexpr double kWarmupSeconds = 0.1;
// How long a step waits for outstanding replies after its send window.
constexpr double kDrainSeconds = 5.0;
// The operator connection's WATCH interval, as `freshenctl top` uses.
constexpr double kWatchIntervalSeconds = 1.0;

const char* VerbWord(Verb verb) {
  switch (verb) {
    case Verb::kIsFresh: return "ISFRESH";
    case Verb::kAge: return "AGE";
    case Verb::kPlan: return "PLAN";
  }
  return "?";
}

const char* VerbCmd(Verb verb) {
  switch (verb) {
    case Verb::kIsFresh: return "\"cmd\":\"isfresh\"";
    case Verb::kAge: return "\"cmd\":\"age\"";
    case Verb::kPlan: return "\"cmd\":\"plan\"";
  }
  return "?";
}

void AppendRequest(std::string* out, Verb verb, uint32_t id) {
  char line[48];
  const int len = std::snprintf(line, sizeof(line), "%s %u\n", VerbWord(verb),
                                id);
  out->append(line, static_cast<size_t>(len));
}

// Pointer just past `"key":` inside `line`, or nullptr.
const char* FieldAt(std::string_view line, std::string_view key) {
  const size_t at = line.find(key);
  return at == std::string_view::npos ? nullptr : line.data() + at + key.size();
}

// JSON number or null (-> NaN). The reply buffer always holds a '\n' after
// the line, so strtod stops inside it.
bool NumberField(std::string_view line, std::string_view key, double* out) {
  const char* p = FieldAt(line, key);
  if (p == nullptr) return false;
  if (std::strncmp(p, "null", 4) == 0) {
    *out = std::nan("");
    return true;
  }
  char* end = nullptr;
  *out = std::strtod(p, &end);
  return end != p;
}

bool U64Field(std::string_view line, std::string_view key, uint64_t* out) {
  const char* p = FieldAt(line, key);
  if (p == nullptr) return false;
  char* end = nullptr;
  *out = std::strtoull(p, &end, 10);
  return end != p;
}

// %.17g round-trips doubles, and non-finite values are written as null.
bool SameNumber(double reply, double typed) {
  return std::isfinite(typed) ? reply == typed : std::isnan(reply);
}

// Compares a static-snapshot reply with the in-process typed query.
bool ValuesMatch(const FreshendDaemon& daemon, std::string_view line,
                 Verb verb, uint32_t id, uint64_t epoch) {
  double a = 0.0, b = 0.0, c = 0.0;
  switch (verb) {
    case Verb::kIsFresh: {
      auto v = daemon.IsFresh(id);
      const bool fresh = line.find("\"fresh\":true") != std::string_view::npos;
      return v.ok() && v->epoch == epoch && fresh == v->fresh &&
             NumberField(line, "\"p_fresh\":", &a) &&
             NumberField(line, "\"elapsed\":", &b) &&
             SameNumber(a, v->fresh_probability) && SameNumber(b, v->elapsed);
    }
    case Verb::kAge: {
      auto v = daemon.ExpectedAge(id);
      return v.ok() && v->epoch == epoch &&
             NumberField(line, "\"expected_age\":", &a) &&
             NumberField(line, "\"elapsed\":", &b) &&
             SameNumber(a, v->expected_age) && SameNumber(b, v->elapsed);
    }
    case Verb::kPlan: {
      auto v = daemon.GetPlan(id);
      return v.ok() && v->epoch == epoch &&
             NumberField(line, "\"frequency\":", &a) &&
             NumberField(line, "\"interval\":", &b) &&
             NumberField(line, "\"bandwidth_share\":", &c) &&
             SameNumber(a, v->frequency) && SameNumber(b, v->interval) &&
             SameNumber(c, v->bandwidth_share);
    }
  }
  return false;
}

// Checks one reply: ok, matching cmd and id, epoch never decreasing on the
// connection, and (static snapshot) values equal to the typed query.
// Returns an empty string when the reply is correct.
std::string CheckReply(std::string_view line, Verb verb, uint32_t id,
                       QueryConnection* conn, const StepOptions& options) {
  if (line.rfind("{\"ok\":true,", 0) != 0) {
    return "error reply: " + std::string(line.substr(0, 160));
  }
  uint64_t reply_id = 0, epoch = 0;
  if (line.find(VerbCmd(verb)) == std::string_view::npos ||
      !U64Field(line, "\"id\":", &reply_id) || reply_id != id) {
    return "reply does not match request " + std::string(VerbWord(verb)) +
           " " + std::to_string(id) + ": " +
           std::string(line.substr(0, 160));
  }
  if (!U64Field(line, "\"epoch\":", &epoch) || epoch < conn->last_epoch) {
    return "epoch went backwards on a connection: " +
           std::string(line.substr(0, 160));
  }
  conn->last_epoch = epoch;
  if (options.check_values &&
      !ValuesMatch(*options.daemon, line, verb, id, epoch)) {
    return "reply differs from the in-process typed query: " +
           std::string(line.substr(0, 160));
  }
  return {};
}

// In-process replay of one traced request: HandleRequestLine on the same
// line, then the typed query alone. Returns both durations in seconds.
std::pair<double, double> Replay(const FreshendDaemon& daemon, Verb verb,
                                 uint32_t id, SpanBuffer* spans,
                                 uint64_t parent, uint64_t request) {
  std::string line;
  AppendRequest(&line, verb, id);
  line.pop_back();
  const double t0 = NowSeconds();
  freshen::serve::HandleRequestLine(daemon, line);
  const double t1 = NowSeconds();
  switch (verb) {
    case Verb::kIsFresh: daemon.IsFresh(id); break;
    case Verb::kAge: daemon.ExpectedAge(id); break;
    case Verb::kPlan: daemon.GetPlan(id); break;
  }
  const double t2 = NowSeconds();
  const uint64_t protocol =
      spans->Add("serve.protocol", t0, t1, parent, request);
  spans->Add("serve.snapshot_read", t1, t2, protocol, request);
  return {t1 - t0, t2 - t1};
}

// One connection's share of a step, run on its own thread. Open loop:
// requests follow a Poisson schedule at half the step's rate. Closed
// window: a request is sent whenever fewer than `window` are
// outstanding, and its scheduled time is its send time.
void RunConnection(QueryConnection* conn, const KeyStream& keys,
                   const StepOptions& options, double t0, uint64_t seed,
                   StepResult* out) {
  // Sub-microsecond wakeups: the default 50 us timer slack would be
  // charged to every request as generator lag.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  const bool closed = options.window > 0;
  std::vector<double> due;
  if (!closed) {
    const double rate = options.rate_qps * 0.5;
    freshen::Rng rng(seed);
    for (double t = freshen::SampleExponential(rng, rate);
         t < options.duration_seconds;
         t += freshen::SampleExponential(rng, rate)) {
      due.push_back(t);
    }
  }
  std::vector<double> sent, recv;
  std::vector<uint32_t> ids;
  std::vector<Verb> verbs;
  const uint64_t request_base =
      (static_cast<uint64_t>(conn->index + 1) << 48) + conn->made;

  SpanBuffer* spans =
      options.spans != nullptr ? options.spans->NewBuffer() : nullptr;
  std::vector<uint64_t> request_span;

  std::string outbuf;
  size_t out_off = 0;
  std::string inbuf;
  std::vector<char> chunk(1 << 16);
  size_t next = 0, received = 0;
  bool window_closed = false;
  const double deadline = options.duration_seconds + kDrainSeconds;

  auto enqueue = [&](double scheduled, double now) {
    const size_t at = conn->cursor % keys.ids.size();
    conn->cursor = at + 1;
    if (closed) due.push_back(scheduled);
    ids.push_back(keys.ids[at]);
    verbs.push_back(keys.verbs[at]);
    sent.push_back(now);
    recv.push_back(-1.0);
    AppendRequest(&outbuf, verbs.back(), ids.back());
    ++next;
  };

  while (!conn->dead) {
    double now = NowSeconds() - t0;
    if (now >= deadline) break;
    const bool sending = now < options.duration_seconds;
    if (!window_closed && !sending) {
      window_closed = true;
      out->outstanding_at_end = next - received;
    }
    if (closed) {
      while (sending && next - received < options.window) enqueue(now, now);
    } else {
      while (next < due.size() && due[next] <= now) enqueue(due[next], now);
    }
    if (received == next && (closed ? !sending : next == due.size())) break;

    while (out_off < outbuf.size()) {
      const ssize_t w = ::send(conn->fd, outbuf.data() + out_off,
                               outbuf.size() - out_off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (w > 0) {
        out_off += static_cast<size_t>(w);
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        conn->dead = true;
        break;
      }
    }
    if (out_off == outbuf.size()) {
      outbuf.clear();
      out_off = 0;
    }

    bool got = false;
    for (;;) {
      const ssize_t r = ::recv(conn->fd, chunk.data(), chunk.size(),
                               MSG_DONTWAIT);
      if (r > 0) {
        inbuf.append(chunk.data(), static_cast<size_t>(r));
        got = true;
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
        conn->dead = true;
      }
      break;
    }
    if (got) {
      const double at = NowSeconds() - t0;
      size_t pos = 0, newline;
      while ((newline = inbuf.find('\n', pos)) != std::string::npos) {
        const std::string_view line(inbuf.data() + pos, newline - pos);
        pos = newline + 1;
        if (received >= next) {
          conn->dead = true;  // A reply nobody asked for.
          if (out->errors.size() < kMaxErrors) {
            out->errors.push_back("unsolicited reply: " +
                                  std::string(line.substr(0, 160)));
          }
          ++out->failed;
          break;
        }
        const size_t k = received++;
        const std::string error =
            CheckReply(line, verbs[k], ids[k], conn, options);
        if (!error.empty()) {
          ++out->failed;
          if (out->errors.size() < kMaxErrors) out->errors.push_back(error);
          continue;  // Answered, but wrong: recv stays negative.
        }
        recv[k] = at;
        ++out->succeeded;
        if (spans != nullptr && due[k] >= kWarmupSeconds &&
            k % kTraceEvery == 0) {
          const uint64_t request = request_base + k;
          const uint64_t parent = spans->Add("client.request", t0 + due[k],
                                             t0 + at, 0, request);
          spans->Add("client.queue", t0 + due[k], t0 + sent[k], parent,
                     request);
          spans->Add("serve.socket", t0 + sent[k], t0 + at, parent, request);
          request_span.resize(k + 1, 0);
          request_span[k] = parent;
        }
      }
      inbuf.erase(0, pos);
    }

    // Sleep until the next request is due or a reply arrives.
    now = NowSeconds() - t0;
    double wait = 0.005;
    if (!closed && next < due.size()) wait = std::min(wait, due[next] - now);
    if (wait > 0.0 && !conn->dead) {
      pollfd pfd{conn->fd, static_cast<short>(
                               POLLIN | (outbuf.empty() ? 0 : POLLOUT)),
                 0};
      timespec ts{0, static_cast<long>(wait * 1e9)};
      ::ppoll(&pfd, 1, &ts, nullptr);
    }
  }
  if (!window_closed) out->outstanding_at_end = next - received;
  conn->made += next;

  // Unanswered requests are failures: timed out on a live connection, or
  // lost (or never sent) with a dead one. A connection with replies still
  // in flight is out of step with its request stream, so it is not reused.
  const uint64_t scheduled = closed ? next : due.size();
  const uint64_t unanswered = scheduled - received;
  if (unanswered > 0) {
    out->failed += unanswered;
    conn->dead = true;
    if (out->errors.size() < kMaxErrors) {
      out->errors.push_back(std::to_string(unanswered) +
                            " requests unanswered on connection " +
                            std::to_string(conn->index));
    }
  }
  out->scheduled += scheduled;
  out->sent += next;

  // Timed requests: due after the warm-up. A failed one counts as missing
  // every latency limit.
  uint64_t timed = 0, within = 0;
  for (size_t k = 0; k < next; ++k) {
    if (due[k] < kWarmupSeconds) continue;
    ++timed;
    out->generator_lag_us.push_back((sent[k] - due[k]) * 1e6);
    if (recv[k] < 0.0) continue;
    const double latency_us = (recv[k] - due[k]) * 1e6;
    out->latency_us.push_back(latency_us);
    if (latency_us <= kLatencyLimitUs) ++within;
  }
  out->timed += timed + (scheduled - next);
  out->within_limit += within;
  const double window = options.duration_seconds - kWarmupSeconds;
  out->achieved_qps = static_cast<double>(out->latency_us.size()) / window;

  if (spans != nullptr && options.daemon != nullptr) {
    for (size_t k = 0; k < request_span.size(); ++k) {
      if (request_span[k] == 0) continue;
      const auto [protocol, read] =
          Replay(*options.daemon, verbs[k], ids[k], spans, request_span[k],
                 request_base + k);
      out->protocol_us.push_back(protocol * 1e6);
      out->snapshot_read_ns.push_back(read * 1e9);
      out->transport_us.push_back((recv[k] - sent[k] - protocol) * 1e6);
    }
  }
}

bool ConnectUnix(const std::string& path, int* fd_out) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return false;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  *fd_out = fd;
  return true;
}

// Reads one '\n'-terminated line (blocking, with a timeout). Leftover
// bytes stay in `buffer`.
bool ReadLine(int fd, std::string* buffer, std::string* line,
              double timeout_seconds) {
  const double deadline = NowSeconds() + timeout_seconds;
  for (;;) {
    const size_t newline = buffer->find('\n');
    if (newline != std::string::npos) {
      *line = buffer->substr(0, newline);
      buffer->erase(0, newline + 1);
      return true;
    }
    const double left = deadline - NowSeconds();
    if (left <= 0.0) return false;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, std::max(1, static_cast<int>(left * 1e3))) <= 0) {
      continue;
    }
    char chunk[4096];
    const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    buffer->append(chunk, static_cast<size_t>(r));
  }
}

}  // namespace

KeyStream KeyStream::Make(size_t num_elements, bool uniform, size_t length,
                          uint64_t seed) {
  KeyStream stream;
  stream.ids.resize(length);
  stream.verbs.resize(length);
  freshen::Rng rng(seed);
  if (uniform) {
    for (uint32_t& id : stream.ids) {
      id = static_cast<uint32_t>(rng.NextUint64Below(num_elements));
    }
  } else {
    const freshen::AliasTable table(
        freshen::ZipfProbabilities(num_elements, 0.9));
    for (uint32_t& id : stream.ids) {
      id = static_cast<uint32_t>(table.Sample(rng));
    }
  }
  for (Verb& verb : stream.verbs) {
    const uint64_t r = rng.NextUint64Below(4);
    verb = r < 2 ? Verb::kIsFresh : (r == 2 ? Verb::kAge : Verb::kPlan);
  }
  return stream;
}

bool ConnectQuery(const std::string& path, uint32_t index,
                  QueryConnection* conn) {
  *conn = QueryConnection{};
  conn->index = index;
  // Connections start far apart in the key stream.
  conn->cursor = static_cast<size_t>(index) * 7919 * 4099;
  return ConnectUnix(path, &conn->fd);
}

void CloseQuery(QueryConnection* conn) {
  if (conn->fd < 0) return;
  if (!conn->dead) {
    static const char kQuit[] = "QUIT\n";
    if (::send(conn->fd, kQuit, sizeof(kQuit) - 1, MSG_NOSIGNAL) > 0) {
      std::string buffer, line;
      ReadLine(conn->fd, &buffer, &line, 2.0);
    }
  }
  ::close(conn->fd);
  conn->fd = -1;
}

StepResult RunStep(std::vector<QueryConnection>& conns, const KeyStream& keys,
                   const StepOptions& options) {
  std::vector<StepResult> parts(conns.size());
  std::vector<std::thread> threads;
  const double t0 = NowSeconds() + 0.002;
  for (size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back(RunConnection, &conns[c], std::cref(keys),
                         std::cref(options), t0,
                         PhaseSeed(options.seed, c + 1), &parts[c]);
  }
  for (std::thread& thread : threads) thread.join();

  StepResult result;
  result.offered_qps = options.rate_qps;
  for (StepResult& part : parts) {
    result.achieved_qps += part.achieved_qps;
    result.scheduled += part.scheduled;
    result.sent += part.sent;
    result.succeeded += part.succeeded;
    result.failed += part.failed;
    result.outstanding_at_end += part.outstanding_at_end;
    result.timed += part.timed;
    result.within_limit += part.within_limit;
    auto move_into = [](std::vector<double>& to, std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    move_into(result.latency_us, part.latency_us);
    move_into(result.generator_lag_us, part.generator_lag_us);
    move_into(result.transport_us, part.transport_us);
    move_into(result.protocol_us, part.protocol_us);
    move_into(result.snapshot_read_ns, part.snapshot_read_ns);
    for (std::string& e : part.errors) result.errors.push_back(std::move(e));
  }
  return result;
}

WatchClient::~WatchClient() { Stop(); }

bool WatchClient::Start(const std::string& path) {
  if (!ConnectUnix(path, &fd_)) return false;
  char request[64];
  const int len = std::snprintf(request, sizeof(request), "WATCH %g\n",
                                kWatchIntervalSeconds);
  if (::send(fd_, request, static_cast<size_t>(len), MSG_NOSIGNAL) != len) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  started_at_ = NowSeconds();
  reader_ = std::thread(&WatchClient::ReaderMain, this);
  return true;
}

void WatchClient::ReaderMain() {
  std::string buffer, line;
  uint64_t last_epoch = 0;
  bool acked = false;
  while (!saw_end_) {
    if (!ReadLine(fd_, &buffer, &line, 1.0)) {
      if (stop_.load(std::memory_order_acquire) &&
          NowSeconds() - stopped_at_ > 3.0) {
        ++errors_;  // No watch_end within 3 s of ending the stream.
        break;
      }
      continue;
    }
    if (line.rfind("{\"ok\":true,", 0) != 0) {
      ++errors_;
      continue;
    }
    if (!acked) {
      acked = line.find("\"cmd\":\"watch\"") != std::string::npos;
      if (!acked) ++errors_;
      continue;
    }
    if (line.find("\"cmd\":\"watch_end\"") != std::string::npos) {
      saw_end_ = true;
      break;
    }
    uint64_t epoch = 0;
    if (line.find("\"cmd\":\"watch_sample\"") == std::string::npos ||
        !U64Field(line, "\"epoch\":", &epoch) || epoch < last_epoch) {
      ++errors_;
      continue;
    }
    last_epoch = epoch;
    ++samples_;
  }
  // The PING that ended the stream is answered after watch_end.
  if (saw_end_ && ReadLine(fd_, &buffer, &line, 2.0) &&
      line.find("\"cmd\":\"ping\"") == std::string::npos) {
    ++errors_;
  }
}

void WatchClient::Stop() {
  if (fd_ < 0) return;
  stopped_at_ = NowSeconds();
  stop_.store(true, std::memory_order_release);
  static const char kPing[] = "PING\n";
  ::send(fd_, kPing, sizeof(kPing) - 1, MSG_NOSIGNAL);
  if (reader_.joinable()) reader_.join();
  static const char kQuit[] = "QUIT\n";
  ::send(fd_, kQuit, sizeof(kQuit) - 1, MSG_NOSIGNAL);
  ::close(fd_);
  fd_ = -1;
}

uint64_t WatchClient::missed() const {
  const double expected =
      std::floor((stopped_at_ - started_at_) / kWatchIntervalSeconds) - 1.0;
  return expected > static_cast<double>(samples_)
             ? static_cast<uint64_t>(expected) - samples_
             : 0;
}

}  // namespace perfbench
