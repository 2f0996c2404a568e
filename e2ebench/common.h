// Shared plumbing of the end-to-end benchmark: the clock, summary
// statistics, the result every run prints, and the run's options.
#ifndef WEBRE_E2EBENCH_COMMON_H_
#define WEBRE_E2EBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// Seconds on the monotonic clock.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The instant main() started: the origin of every `setup_s`.
double ProcessStart();

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
/// Sorts a copy.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Run-wide options from the command line.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory of the `webre` binary (the build directory).
  std::string bin_dir;
  /// Scratch directory owned by this run (under bin_dir); removed at
  /// exit.
  std::string work_dir;
  /// Client connections per wire workload: min(3, online CPUs - 1), so
  /// the client thread plus its connections stay within the CPUs.
  size_t connections = 3;
};

/// One named figure of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a run reports. `checks_failed` lists each failed output
/// check; a non-empty list makes `correct` false. Operations the
/// program refused or answered with an error count in `failed`.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> checks_failed;
  size_t checks_passed = 0;
  /// Figures printed for a human reader but kept out of the result
  /// line (tails, gaps, counts of the run).
  std::vector<Metric> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Note(std::string name, double value, std::string unit) {
    notes.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Records one output check.
  void Check(bool ok, const std::string& what) {
    if (ok) {
      ++checks_passed;
    } else {
      checks_failed.push_back(what);
    }
  }
};

/// Peak resident set (VmHWM) of process `pid` (0 = this process) in
/// MB; 0 when /proc cannot be read.
double PeakRssMb(int pid);

/// Total size in bytes of the regular files under `dir` (recursive).
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace e2e

#endif  // WEBRE_E2EBENCH_COMMON_H_
