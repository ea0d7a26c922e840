// Shared plumbing for the end-to-end benchmark: run configuration, the
// result report every phase writes into, and small timing/statistics
// helpers. Nothing here touches libfreshen.
#ifndef FRESHEN_PERFBENCH_COMMON_H_
#define FRESHEN_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Everything a run is parameterised by (all from the command line).
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Measured seconds for the whole run, split across the phases.
  double seconds = 30.0;
  /// Traced run: per-layer spans on, per-layer metrics reported.
  bool trace = false;
  /// Client keys: Zipf(0.9) over element ids, or uniform.
  bool uniform_keys = false;
  /// Working directory inside the checkout (socket, catalog, result files).
  std::string work_dir;
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run found. Phases append metrics, count operations, and record
/// every failed correctness check.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Informational key/values for the human-readable header and the
  /// results file (hardware, build, N, B, sample counts).
  std::vector<std::pair<std::string, std::string>> info;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;

  void EndToEnd(const std::string& name, double value, const char* unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const char* unit) {
    per_layer.push_back({name, value, unit});
  }
  void Info(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  /// Records a correctness check; a false `ok` fails the run.
  void Check(bool ok, const std::string& what);
};

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since an arbitrary process-wide origin.
double NowSeconds();

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Current and high-water resident set size of this process, in MB.
double CurrentRssMb();
double PeakRssMb();

/// Decorrelated per-phase seed derived from the run seed.
uint64_t PhaseSeed(uint64_t seed, uint64_t salt);

/// Concatenates its arguments' stream forms (numbers with 12 digits).
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream out;
  out.precision(12);
  (out << ... << args);
  return out.str();
}

}  // namespace perfbench

#endif  // FRESHEN_PERFBENCH_COMMON_H_
