#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  check_failures.push_back(what);
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

double NowSeconds() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t k = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

// Reads a "Key:   123 kB" line from /proc/self/status.
double StatusKb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::atof(line.c_str() + key_len + 1);
    }
  }
  return 0.0;
}

}  // namespace

double CurrentRssMb() { return StatusKb("VmRSS") / 1024.0; }
double PeakRssMb() { return StatusKb("VmHWM") / 1024.0; }

uint64_t PhaseSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
