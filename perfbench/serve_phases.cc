// serve_read and serve_churn: a FreshendDaemon behind a LineServer on a
// real UNIX socket, driven by the clients in client.h.
//
// Each round measures one open-loop window at the reference rate (the
// latency a reader sees: p50, p99, and the share answered within 1 ms of
// its scheduled send) and one saturation step (two connections with a
// fixed number of requests outstanding: the highest read rate the server
// sustains). serve_read keeps the loop stopped, so transport, protocol and
// snapshot reads are all that run; serve_churn starts the loop for the
// round, so periods replan and republish while reads are in flight.
//
// The open-loop latency limit is 1 ms rather than a tighter one because on
// virtual machines a vCPU woken from idle is sometimes descheduled for
// milliseconds. That puts the p99 of an idle-machine round trip well above
// 250 us and makes it vary tenfold between runs, so the p99 is printed but
// not reported as a metric. The saturation step keeps every thread busy
// and so measures the server, not the wake-ups.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "io/catalog_binary.h"
#include "mirror/online_loop.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "phases.h"
#include "serve/daemon.h"
#include "serve/server.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace perfbench {

using freshen::ElementSet;
using freshen::ExperimentSpec;
using freshen::serve::FreshendDaemon;
using freshen::serve::LineServer;
namespace obs = freshen::obs;

namespace {

constexpr int kSetupReps = 3;
// One round: a reference window, then a saturation step. In serve_churn the
// loop starts with the round and runs kPeriodsPerRound periods 1 s apart:
// the busy parts of all but the last fall inside the (longer) reference
// window and the last one's inside the saturation step, whatever the
// host's timing jitter.
constexpr uint64_t kPeriodsPerRound = 4;
constexpr double kReferenceSeconds = 0.9;
constexpr double kChurnReferenceSeconds = kPeriodsPerRound - 1.1;
constexpr double kSaturationSeconds = 0.6;
constexpr double kReferenceQps = 20000.0;
constexpr size_t kSaturationWindow = 32;
constexpr size_t kKeyStreamLength = size_t{1} << 20;

struct ServeSpec {
  const char* name;
  size_t num_elements;
  double bandwidth;
  double accesses_per_period;
  bool churn;
  /// Round-trip the catalog through a FRSHCAT1 file during set-up.
  bool binary_catalog;
  uint64_t salt;
};

constexpr ServeSpec kServeRead{"serve_read", 1000000, 250000.0, 1000.0,
                               false, true, 11};
constexpr ServeSpec kServeChurn{"serve_churn", 20000, 5000.0, 5000.0, true,
                                false, 23};

FreshendDaemon::Options DaemonOptions(const ServeSpec& spec, uint64_t seed,
                                      obs::MetricsRegistry* registry) {
  // freshend's defaults (full replan every period), paced at 1 s.
  FreshendDaemon::Options options;
  options.loop.accesses_per_period = spec.accesses_per_period;
  options.loop.seed = PhaseSeed(seed, spec.salt + 1);
  options.loop.registry = registry;
  options.registry = registry;
  options.period_seconds = 1.0;
  return options;
}

ElementSet MakeCatalog(const ServeSpec& spec, uint64_t seed) {
  ExperimentSpec catalog;
  catalog.num_objects = spec.num_elements;
  catalog.theta = 1.0;
  catalog.seed = PhaseSeed(seed, spec.salt);
  return freshen::GenerateCatalog(catalog).value();
}

double HistogramMean(const obs::RegistrySnapshot& after,
                     const obs::RegistrySnapshot& before, const char* span) {
  const obs::Labels labels = {{"span", span}};
  const obs::MetricSample* a = after.Find(obs::kSpanHistogramName, labels);
  if (a == nullptr) return 0.0;
  const obs::MetricSample* b = before.Find(obs::kSpanHistogramName, labels);
  const double sum = a->sum - (b != nullptr ? b->sum : 0.0);
  const double count = static_cast<double>(a->count) -
                       (b != nullptr ? static_cast<double>(b->count) : 0.0);
  return count > 0.0 ? sum / count : 0.0;
}

double CounterValue(const obs::RegistrySnapshot& snapshot, const char* name) {
  const obs::MetricSample* sample = snapshot.Find(name);
  return sample != nullptr ? sample->value : 0.0;
}

// Samples the running loop from a harness thread, once per period: each
// period's busy time (its `period` span), the shards its publication
// rebuilt, and retired snapshots awaiting reclamation. Periods start 1 s
// apart and the sampler polls every 20 ms, so it sees them one at a time.
class PeriodSampler {
 public:
  PeriodSampler(const FreshendDaemon* daemon, obs::MetricsRegistry* registry)
      : daemon_(daemon), registry_(registry), thread_([this] { Main(); }) {}
  ~PeriodSampler() { Stop(); }
  PeriodSampler(const PeriodSampler&) = delete;
  PeriodSampler& operator=(const PeriodSampler&) = delete;

  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  // Read only after Stop(). busy_ms[k] belongs to period period_index[k]
  // (1-based, counted over the daemon's life).
  std::vector<uint64_t> period_index;
  std::vector<double> busy_ms;
  std::vector<double> shards_rebuilt;
  size_t max_retired_pending = 0;

 private:
  void Main() {
    uint64_t seen_epoch = 0;
    obs::RegistrySnapshot last = registry_->Snapshot();
    while (!stop_.load(std::memory_order_acquire)) {
      {
        freshen::serve::SnapshotRef ref = daemon_->AcquireSnapshot();
        if (ref && ref->epoch() != seen_epoch) {
          if (seen_epoch != 0) {
            shards_rebuilt.push_back(
                static_cast<double>(ref->stats().shards_rebuilt));
          }
          seen_epoch = ref->epoch();
        }
      }
      max_retired_pending = std::max(max_retired_pending,
                                     daemon_->Stats().store.retired_pending);
      obs::RegistrySnapshot now = registry_->Snapshot();
      const obs::Labels labels = {{"span", "period"}};
      const obs::MetricSample* a = now.Find(obs::kSpanHistogramName, labels);
      const obs::MetricSample* b = last.Find(obs::kSpanHistogramName, labels);
      const uint64_t before = b != nullptr ? b->count : 0;
      if (a != nullptr && a->count != before) {
        if (a->count == before + 1) {
          period_index.push_back(a->count);
          busy_ms.push_back((a->sum - (b != nullptr ? b->sum : 0.0)) * 1e3);
        }
        last = std::move(now);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  const FreshendDaemon* daemon_;
  obs::MetricsRegistry* registry_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

class ServePhase final : public Phase {
 public:
  ServePhase(const ServeSpec& spec, const RunConfig& config, int rounds,
             SpanLog* spans, Report* report)
      : spec_(spec),
        phase_(spec.name),
        config_(config),
        rounds_(rounds),
        spans_(spans),
        report_(report),
        socket_path_(config.work_dir + "/" + phase_ + ".sock") {}

  ~ServePhase() override { Release(); }

  double SetUp() override;
  void Round(int round) override;
  void Finish() override;

 private:
  void Release();
  void Account(const StepResult& step);
  void CheckAgainstBareLoop(uint64_t periods,
                            const obs::RegistrySnapshot& daemon_metrics);

  const ServeSpec spec_;
  const std::string phase_;
  const RunConfig config_;
  const int rounds_;
  SpanLog* const spans_;
  Report* const report_;
  const std::string socket_path_;

  // The deployment: registry first, so it outlives the daemon and server
  // that report into it.
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<FreshendDaemon> daemon_;
  std::unique_ptr<LineServer> server_;
  ElementSet truth_;
  std::vector<double> setup_catalog_, setup_create_, setup_server_;
  bool ready_ = false;

  KeyStream keys_;
  std::vector<QueryConnection> conns_;
  WatchClient watch_;
  std::unique_ptr<PeriodSampler> sampler_;
  obs::RegistrySnapshot global_before_;
  StepOptions options_;

  // Per-round values and pooled samples.
  std::vector<double> p50_, p99_, within_, max_qps_, period_ms_;
  // serve_churn: RSS growth inside churn rounds (other phases allocate
  // between them) and the RSS after the last one.
  double rss_growth_mb_ = 0.0;
  double rss_mb_ = 0.0;
  std::vector<double> shards_rebuilt_;
  size_t max_retired_pending_ = 0;
  uint64_t reference_samples_ = 0;
  uint64_t sent_ = 0, succeeded_ = 0, failed_ = 0;
  uint64_t outstanding_at_end_ = 0;
  std::vector<double> generator_lag_us_;
  std::vector<double> traced_p50_;
  std::vector<double> transport_us_, protocol_us_, snapshot_read_ns_;
};

double ServePhase::SetUp() {
  // Catalog generate (and FRSHCAT1 save + load) -> daemon Create (cold
  // plan, first publish) -> server start. Repeated; the last is kept.
  const std::string catalog_path = config_.work_dir + "/catalog.fcat";
  SpanBuffer* spans = spans_ != nullptr ? spans_->NewBuffer() : nullptr;
  std::vector<double> totals;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Release();
    const double t0 = NowSeconds();
    ElementSet catalog = MakeCatalog(spec_, config_.seed);
    if (spec_.binary_catalog) {
      if (!freshen::SaveCatalogBinary(catalog, catalog_path).ok()) {
        std::remove(catalog_path.c_str());
        report_->Check(false, phase_ + ": catalog save");
        return 0.0;
      }
      auto loaded = freshen::LoadCatalogBinary(catalog_path);
      std::remove(catalog_path.c_str());
      report_->Check(loaded.ok() && loaded->size() == catalog.size(),
                     phase_ + ": FRSHCAT1 load round trip");
      if (!loaded.ok()) return 0.0;
      catalog = std::move(loaded).value();
    }
    const double t1 = NowSeconds();
    if (spec_.churn) truth_ = catalog;  // For the bare-loop check.
    registry_ = std::make_unique<obs::MetricsRegistry>();
    auto daemon = FreshendDaemon::Create(
        std::move(catalog), spec_.bandwidth,
        DaemonOptions(spec_, config_.seed, registry_.get()));
    if (!daemon.ok()) {
      report_->Check(false, phase_ + ": daemon create: " +
                                daemon.status().ToString());
      return 0.0;
    }
    daemon_ = std::move(daemon).value();
    const double t2 = NowSeconds();
    LineServer::Options server_options;
    server_options.socket_path = socket_path_;
    server_options.registry = registry_.get();
    auto server = LineServer::Start(daemon_.get(), server_options);
    if (!server.ok()) {
      report_->Check(false, phase_ + ": server start: " +
                                server.status().ToString());
      return 0.0;
    }
    server_ = std::move(server).value();
    const double t3 = NowSeconds();
    totals.push_back(t3 - t0);
    setup_catalog_.push_back(t1 - t0);
    setup_create_.push_back(t2 - t1);
    setup_server_.push_back(t3 - t2);
    if (spans != nullptr) {
      const uint64_t root = spans->Add("setup", t0, t3);
      spans->Add("setup.catalog", t0, t1, root);
      spans->Add("setup.daemon_create", t1, t2, root);
      spans->Add("setup.server_start", t2, t3, root);
    }
  }

  keys_ = KeyStream::Make(spec_.num_elements, config_.uniform_keys,
                          kKeyStreamLength,
                          PhaseSeed(config_.seed, spec_.salt + 2));
  conns_.resize(2);
  for (uint32_t c = 0; c < conns_.size(); ++c) {
    report_->Check(ConnectQuery(socket_path_, c, &conns_[c]),
                   phase_ + ": query connection " + std::to_string(c));
  }
  report_->Check(watch_.Start(socket_path_),
                 phase_ + ": WATCH connection");
  if (spec_.churn) {
    global_before_ = obs::MetricsRegistry::Global().Snapshot();
  }
  options_.daemon = daemon_.get();
  options_.check_values = !spec_.churn;
  ready_ = true;
  return Median(totals);
}

void ServePhase::Account(const StepResult& step) {
  report_->attempted += step.scheduled;
  report_->failed += step.failed;
  sent_ += step.sent;
  succeeded_ += step.succeeded;
  failed_ += step.failed;
  for (const std::string& error : step.errors) {
    report_->Check(false, phase_ + ": " + error);
  }
}

void ServePhase::Round(int round) {
  if (!ready_) return;
  const uint64_t periods_before = spec_.churn ? daemon_->PeriodsRun() : 0;
  const double rss_before = CurrentRssMb();
  if (spec_.churn) {
    report_->Check(daemon_->Start().ok(), phase_ + ": daemon start");
    sampler_ = std::make_unique<PeriodSampler>(daemon_.get(), registry_.get());
  }

  StepOptions options = options_;
  options.seed = PhaseSeed(config_.seed, spec_.salt * 1000 + round);
  options.rate_qps = kReferenceQps;
  options.duration_seconds =
      spec_.churn ? kChurnReferenceSeconds : kReferenceSeconds;
  const StepResult reference = RunStep(conns_, keys_, options);
  Account(reference);
  p50_.push_back(Percentile(reference.latency_us, 0.50));
  p99_.push_back(Percentile(reference.latency_us, 0.99));
  within_.push_back(reference.timed > 0
                        ? static_cast<double>(reference.within_limit) /
                              static_cast<double>(reference.timed)
                        : 0.0);
  reference_samples_ += reference.latency_us.size();
  outstanding_at_end_ =
      std::max(outstanding_at_end_, reference.outstanding_at_end);
  Append(&generator_lag_us_, reference.generator_lag_us);
  std::printf("  %s round %d reference %.0f/s: sent %llu ok %llu failed "
              "%llu p50 %.2f us p99 %.2f us within %.0f us %.4f "
              "outstanding %llu generator lag p50 %.2f us p99 %.2f us\n",
              phase_.c_str(), round, kReferenceQps,
              static_cast<unsigned long long>(reference.sent),
              static_cast<unsigned long long>(reference.succeeded),
              static_cast<unsigned long long>(reference.failed), p50_.back(),
              p99_.back(), kLatencyLimitUs, within_.back(),
              static_cast<unsigned long long>(reference.outstanding_at_end),
              Percentile(reference.generator_lag_us, 0.5),
              Percentile(reference.generator_lag_us, 0.99));

  options.window = kSaturationWindow;
  options.duration_seconds = kSaturationSeconds;
  const StepResult saturated = RunStep(conns_, keys_, options);
  Account(saturated);
  max_qps_.push_back(saturated.achieved_qps);
  std::printf("  %s round %d saturation (%zu outstanding per connection): "
              "sent %llu ok %llu failed %llu achieved %.0f/s p50 %.2f us "
              "p99 %.2f us\n",
              phase_.c_str(), round, kSaturationWindow,
              static_cast<unsigned long long>(saturated.sent),
              static_cast<unsigned long long>(saturated.succeeded),
              static_cast<unsigned long long>(saturated.failed),
              saturated.achieved_qps, Percentile(saturated.latency_us, 0.5),
              Percentile(saturated.latency_us, 0.99));

  // The traced copy of the reference window (in serve_churn, beside the
  // loop's fifth period, as the untraced one ran beside the first three).
  if (spans_ != nullptr) {
    options.window = 0;
    options.duration_seconds = kReferenceSeconds;
    options.spans = spans_;
    options.seed = PhaseSeed(options.seed, 1);
    const StepResult traced = RunStep(conns_, keys_, options);
    Account(traced);
    traced_p50_.push_back(Percentile(traced.latency_us, 0.50));
    Append(&transport_us_, traced.transport_us);
    Append(&protocol_us_, traced.protocol_us);
    Append(&snapshot_read_ns_, traced.snapshot_read_ns);
  }

  if (spec_.churn) {
    // Stop once the round has run its periods; Stop lets the current
    // period finish, so the loop never stops mid-period.
    while (daemon_->running() &&
           daemon_->PeriodsRun() < periods_before + kPeriodsPerRound) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    daemon_->Stop();
    sampler_->Stop();
    // Busy time of the periods that ran beside the reference window.
    std::string busy;
    for (size_t k = 0; k < sampler_->busy_ms.size(); ++k) {
      if (sampler_->period_index[k] < periods_before + kPeriodsPerRound) {
        period_ms_.push_back(sampler_->busy_ms[k]);
        busy += StrCat(" ", static_cast<int>(sampler_->busy_ms[k]));
      }
    }
    std::printf("  %s round %d loop periods beside the reference window, "
                "busy ms:%s\n",
                phase_.c_str(), round, busy.c_str());
    shards_rebuilt_.insert(shards_rebuilt_.end(),
                           sampler_->shards_rebuilt.begin(),
                           sampler_->shards_rebuilt.end());
    max_retired_pending_ =
        std::max(max_retired_pending_, sampler_->max_retired_pending);
    sampler_.reset();
    rss_mb_ = CurrentRssMb();
    rss_growth_mb_ += rss_mb_ - rss_before;
  }
}

// Re-runs the daemon's loop bare (no daemon, no hook, no pacing) for the
// same number of periods and compares counts and final state. The bare
// loop's per-period stats also give loop_pf.
void ServePhase::CheckAgainstBareLoop(
    uint64_t periods, const obs::RegistrySnapshot& daemon_metrics) {
  obs::MetricsRegistry registry;
  const FreshendDaemon::Options options =
      DaemonOptions(spec_, config_.seed, &registry);
  auto loop = freshen::OnlineFreshenLoop::Create(truth_, spec_.bandwidth,
                                                 options.loop);
  if (!loop.ok()) {
    report_->Check(false, phase_ + ": bare loop create");
    return;
  }
  // loop_pf covers a fixed number of periods, so it is a pure function of
  // the seed however many periods the rounds happened to run.
  const uint64_t pf_periods = kPeriodsPerRound * rounds_;
  double accesses = 0.0, fresh = 0.0;
  for (uint64_t p = 0; p < periods; ++p) {
    const freshen::PeriodStats stats = loop->RunPeriod();
    if (p < pf_periods) {
      accesses += static_cast<double>(stats.accesses);
      fresh += stats.perceived_freshness * static_cast<double>(stats.accesses);
    }
  }
  const obs::RegistrySnapshot bare = registry.Snapshot();
  const char* counters[] = {
      "freshen_mirror_periods_total", "freshen_mirror_accesses_total",
      "freshen_mirror_syncs_total", "freshen_mirror_fresh_accesses_total",
      "freshen_mirror_bandwidth_spent_total"};
  for (const char* name : counters) {
    const double got = CounterValue(daemon_metrics, name);
    const double want = CounterValue(bare, name);
    report_->Check(got == want, StrCat(phase_, ": ", name, " daemon ", got,
                                       " != bare loop ", want));
  }
  const std::vector<double>& want = loop->controller().frequencies();
  const std::vector<double>& got = daemon_->loop().controller().frequencies();
  report_->Check(want.size() == got.size() &&
                     std::memcmp(want.data(), got.data(),
                                 want.size() * sizeof(double)) == 0,
                 phase_ + ": final plan differs from the bare loop's");
  bool same_syncs = true;
  for (size_t i = 0; i < truth_.size() && same_syncs; ++i) {
    same_syncs = loop->mirror().LastSyncTime(i) ==
                 daemon_->loop().mirror().LastSyncTime(i);
  }
  report_->Check(same_syncs,
                 phase_ + ": final last-sync times differ from the bare loop");
  report_->Check(periods >= pf_periods,
                 StrCat(phase_, ": loop ran ", periods, " periods, fewer than ",
                        pf_periods));
  report_->EndToEnd(phase_ + ".loop_pf",
                    accesses > 0.0 ? fresh / accesses : 0.0, "ratio");
}

void ServePhase::Finish() {
  if (!ready_) {
    Release();
    return;
  }
  watch_.Stop();
  report_->attempted += watch_.samples() + watch_.missed();
  report_->failed += watch_.missed() + watch_.errors();
  report_->Check(watch_.errors() == 0 && watch_.saw_end(),
                 phase_ + ": WATCH stream malformed or not ended cleanly");
  report_->Check(watch_.missed() == 0,
                 StrCat(phase_, ": WATCH samples missed: ", watch_.missed()));
  for (QueryConnection& conn : conns_) CloseQuery(&conn);
  {
    freshen::serve::SnapshotRef final_snapshot = daemon_->AcquireSnapshot();
    report_->Check(final_snapshot && final_snapshot->CheckConsistent(),
                   phase_ + ": final pinned snapshot fails CheckConsistent");
  }
  server_->Stop();
  const freshen::serve::ServerStats server_stats = server_->stats();

  // Interference from other tenants of a shared host only slows a round
  // down, in bursts of a few seconds, so latency and throughput take the
  // quartile on the fast side of the rounds.
  report_->EndToEnd(phase_ + ".read_p50_us", Percentile(p50_, 0.25), "us");
  report_->EndToEnd(phase_ + ".read_1ms_ratio", Median(within_), "ratio");
  report_->EndToEnd(phase_ + ".read_max_qps", Percentile(max_qps_, 0.75),
                    "1/s");
  report_->Info(phase_ + ".requests", StrCat("sent ", sent_, ", succeeded ",
                                             succeeded_, ", failed ",
                                             failed_));
  report_->Info(phase_ + ".N", std::to_string(spec_.num_elements));
  report_->Info(phase_ + ".B", StrCat(spec_.bandwidth));
  // Printed, not gated: see the file comment.
  report_->Info(phase_ + ".read_p99_us",
                StrCat(Median(p99_), " us over ", reference_samples_,
                       " reference-window samples"));

  if (config_.trace) {
    // Names both serve phases report carry the phase prefix.
    const std::string p = phase_ + ".serve.";
    report_->Layer(p + "transport_us", Percentile(transport_us_, 0.5), "us");
    report_->Layer(p + "protocol_us", Percentile(protocol_us_, 0.5), "us");
    report_->Layer(p + "protocol_p99_us", Percentile(protocol_us_, 0.99),
                   "us");
    report_->Layer(p + "snapshot_read_ns", Percentile(snapshot_read_ns_, 0.5),
                   "ns");
    report_->Layer(p + "requests", server_stats.requests, "count");
    report_->Layer(p + "accepted", server_stats.accepted, "count");
    report_->Layer(p + "rejected", server_stats.rejected, "count");
    report_->Layer(p + "overflow", server_stats.overflow, "count");
    const std::string b = phase_ + ".bench.";
    report_->Layer(b + "generator_lag_p50_us",
                   Percentile(generator_lag_us_, 0.5), "us");
    report_->Layer(b + "generator_lag_p99_us",
                   Percentile(generator_lag_us_, 0.99), "us");
    report_->Layer(b + "outstanding_at_end", outstanding_at_end_, "count");
    const double untraced = Median(p50_);
    report_->Layer(b + "tracing_overhead_pct",
                   untraced > 0.0
                       ? 100.0 * (Median(traced_p50_) - untraced) / untraced
                       : 0.0,
                   "%");
    const std::string s = phase_ + ".setup.";
    report_->Layer(s + "catalog_s", Median(setup_catalog_), "s");
    report_->Layer(s + "daemon_create_s", Median(setup_create_), "s");
    report_->Layer(s + "server_start_s", Median(setup_server_), "s");
  }

  if (spec_.churn) {
    const obs::RegistrySnapshot metrics = registry_->Snapshot();
    const obs::RegistrySnapshot global =
        obs::MetricsRegistry::Global().Snapshot();
    const obs::RegistrySnapshot none;
    const uint64_t periods = daemon_->PeriodsRun();
    const double accesses =
        CounterValue(metrics, "freshen_mirror_accesses_total");
    const double syncs = CounterValue(metrics, "freshen_mirror_syncs_total");
    const double period_ms = HistogramMean(metrics, none, "period") * 1e3;
    // Per layer, not end to end: the busy time of this loop (O(N) work per
    // event over a growing history) swings with the host's cache and memory
    // load by more than any bound a regression gate could use.
    const double loop_ms = Median(period_ms_);
    report_->Info(phase_ + ".loop_ms_per_period", StrCat(loop_ms, " ms"));
    report_->Info(phase_ + ".periods", StrCat(periods));
    if (config_.trace) {
      report_->Layer(phase_ + ".loop_ms_per_period", loop_ms, "ms");
      // The loop's own spans: period (loop registry), period/replan and
      // period/replan/solve (global registry), period/serve_publish
      // (daemon registry).
      const double replan_ms =
          HistogramMean(global, global_before_, "period/replan") * 1e3;
      const double solve_ms =
          HistogramMean(global, global_before_, "period/replan/solve") * 1e3;
      const double publish_ms =
          HistogramMean(metrics, none, "period/serve_publish") * 1e3;
      const double events =
          periods > 0 ? (accesses + syncs) / static_cast<double>(periods)
                      : 0.0;
      const double event_ms = period_ms - replan_ms - publish_ms;
      report_->Layer("serve.publish_ms", publish_ms, "ms");
      report_->Layer("serve.shards_rebuilt", Median(shards_rebuilt_), "count");
      report_->Layer("serve.retired_pending", max_retired_pending_, "count");
      report_->Layer("mirror.event_phase_ms", event_ms, "ms");
      report_->Layer("mirror.events_per_period", events, "count");
      report_->Layer("mirror.us_per_event",
                     events > 0.0 ? event_ms * 1e3 / events : 0.0, "us");
      report_->Layer("adaptive.replan_ms", replan_ms, "ms");
      report_->Layer("opt.solve_ms", solve_ms, "ms");
      report_->Layer("proc.rss_mb", rss_mb_, "MB");
      report_->Layer("proc.rss_growth_mb_per_period",
                     periods > 0 ? rss_growth_mb_ / static_cast<double>(periods)
                                 : 0.0,
                     "MB/period");
    }
    CheckAgainstBareLoop(periods, metrics);
  }
  Release();
}

void ServePhase::Release() {
  ready_ = false;
  watch_.Stop();
  for (QueryConnection& conn : conns_) CloseQuery(&conn);
  conns_.clear();
  if (sampler_ != nullptr) sampler_->Stop();
  sampler_.reset();
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  daemon_.reset();
  registry_.reset();
}

}  // namespace

std::unique_ptr<Phase> MakeServeRead(const RunConfig& config, int rounds,
                                     SpanLog* spans, Report* report) {
  return std::make_unique<ServePhase>(kServeRead, config, rounds, spans,
                                      report);
}

std::unique_ptr<Phase> MakeServeChurn(const RunConfig& config, int rounds,
                                      SpanLog* spans, Report* report) {
  return std::make_unique<ServePhase>(kServeChurn, config, rounds, spans,
                                      report);
}

}  // namespace perfbench
