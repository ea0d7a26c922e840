// freshen_perfbench: the end-to-end benchmark program.
//
//   freshen_perfbench --workload zipf_keys --seed 1 --seconds 35 --trace 0
//                     [--work-dir .bench_build/run]
//
// Every run executes three phases (see phases.h), interleaved in rounds:
//   serve_read   static reads over the socket (N = 1M, loop stopped)
//   serve_churn  the same reads beside a wall-paced replanning loop
//   plan_big     the paper's Big Case planned exact, partitioned, delta
// The workload picks the client key distribution (zipf_keys: Zipf(0.9);
// uniform_keys: uniform over the catalog). All inputs derive from --seed.
//
// Output: human-readable lines, then as the last stdout line one JSON
// object {"correct","attempted","failed","metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the same phases with spans around
// every call into a layer and reports the per-layer metrics instead. The
// exit code is 1 when any correctness check failed.
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "common.h"
#include "obs/build_info.h"
#include "phases.h"
#include "spans.h"

namespace {

using namespace perfbench;

// A round of all three phases takes about this long (a 1.6 s serve_read
// round, a 3.6 s serve_churn round and a plan round); --seconds sets how
// many rounds a run makes.
constexpr double kRoundSeconds = 7.0;
constexpr double kPlanRoundSeconds = 1.8;

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "freshen_perfbench: %s\n"
               "usage: freshen_perfbench --workload zipf_keys|uniform_keys "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
               message);
  std::exit(2);
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  config.work_dir = ".bench_build/run";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds >= 1.0)) {
        Usage("--seconds takes a number >= 1");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (config.workload == "zipf_keys") {
    config.uniform_keys = false;
  } else if (config.workload == "uniform_keys") {
    config.uniform_keys = true;
  } else {
    Usage(("unknown workload " + config.workload).c_str());
  }
  return config;
}

bool MakeDirs(const std::string& path) {
  for (size_t at = path.find('/', 1);; at = path.find('/', at + 1)) {
    const std::string prefix = path.substr(0, at);
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
    if (at == std::string::npos) return true;
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i ? ", " : "") + JsonString(metrics[i].name) +
           ": {\"value\": " + value +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig config = ParseArgs(argc, argv);
  // A client that disconnects mid-write must not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  if (!MakeDirs(config.work_dir)) {
    std::fprintf(stderr, "cannot create %s\n", config.work_dir.c_str());
    return 1;
  }

  Report report;
  report.Info("workload", config.workload);
  report.Info("seed", std::to_string(config.seed));
  report.Info("seconds", StrCat(config.seconds));
  report.Info("trace", config.trace ? "1" : "0");
  report.Info("hardware_threads",
              std::to_string(std::thread::hardware_concurrency()));
  report.Info("build", freshen::obs::BuildInfoJson());

  SpanLog span_log;
  SpanLog* spans = config.trace ? &span_log : nullptr;
  const int rounds = std::max(
      3, static_cast<int>(std::lround(config.seconds / kRoundSeconds)));
  report.Info("rounds", std::to_string(rounds));
  std::unique_ptr<Phase> phases[] = {
      MakeServeRead(config, rounds, spans, &report),
      MakeServeChurn(config, rounds, spans, &report),
      MakePlanBig(config, kPlanRoundSeconds, spans, &report)};
  double setup = 0.0;
  for (auto& phase : phases) setup += phase->SetUp();
  for (int r = 0; r < rounds; ++r) {
    for (auto& phase : phases) phase->Round(r);
  }
  for (auto& phase : phases) phase->Finish();
  report.end_to_end.insert(report.end_to_end.begin(),
                           Metric{"setup_s", setup, "s"});
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");

  const double error_ratio =
      report.attempted > 0
          ? static_cast<double>(report.failed) / report.attempted
          : 0.0;
  const bool correct = report.check_failures.empty();

  for (const auto& [key, value] : report.info) {
    std::printf("%-32s %s\n", key.c_str(), value.c_str());
  }
  std::printf("%-32s %.6g (%llu failed / %llu attempted)\n", "error_ratio",
              error_ratio, static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::printf("\nend-to-end metrics%s:\n",
              config.trace ? " (measured beside the tracing; the gated values "
                             "come from --trace 0 runs)"
                           : "");
  for (const Metric& m : report.end_to_end) {
    std::printf("  %-36s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (config.trace) {
    std::printf("\nspans by name (self = busy minus child-covered time):\n%s",
                FormatLayerTable(span_log.Table()).c_str());
    std::printf("\nper-layer metrics:\n");
    for (const Metric& m : report.per_layer) {
      std::printf("  %-44s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    // One file per workload: each traced run replaces the last one's.
    const std::string trace_path =
        config.work_dir + "/spans-" + config.workload + ".csv";
    if (span_log.WriteCsv(trace_path)) {
      std::printf("spans written to %s (%zu spans)\n", trace_path.c_str(),
                  span_log.size());
    }
  }
  std::printf("\ncorrectness: %s\n",
              correct ? "all checks passed" : "CHECKS FAILED");
  for (const std::string& failure : report.check_failures) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }

  // Full record, for later comparison.
  std::string info_json = "{";
  for (size_t i = 0; i < report.info.size(); ++i) {
    const auto& [key, value] = report.info[i];
    info_json += (i ? ", " : "") + JsonString(key) + ": " +
                 (key == "build" ? value : JsonString(value));
  }
  info_json += "}";
  const std::string record_path =
      config.work_dir + "/result-" + config.workload + "-" +
      std::to_string(config.seed) + "-trace" + (config.trace ? "1" : "0") +
      ".json";
  if (FILE* out = std::fopen(record_path.c_str(), "w")) {
    std::fprintf(out,
                 "{\"info\": %s, \"error_ratio\": %.17g, "
                 "\"end_to_end\": %s, \"per_layer\": %s}\n",
                 info_json.c_str(), error_ratio,
                 MetricsJson(report.end_to_end).c_str(),
                 MetricsJson(report.per_layer).c_str());
    std::fclose(out);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(config.trace ? report.per_layer
                                       : report.end_to_end)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
