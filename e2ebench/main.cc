// e2ebench — the end-to-end benchmark of webre (see README.md here).
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--bin-dir DIR]
//   e2ebench --selftest
//
// Workloads: ingest, query_repeat, query_distinct, batch_map. With
// --trace 0 the run measures the end-to-end metrics; with --trace 1 it
// runs the per-layer traced mode. Human-readable lines come first; the
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every output check passed, 1 when one failed, 2 on
// a usage error (no result line).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "ingest|query_repeat|query_distinct|batch_map --seed N "
               "--seconds S --trace 0|1 [--bin-dir DIR]\n"
               "       e2ebench --selftest\n",
               message);
  return 2;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string SelfDirectory() {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string(".") : exe.parent_path().string();
}

}  // namespace

int main(int argc, char** argv) {
  e2e::ProcessStart();
  e2e::RunOptions options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--bin-dir") {
      options.bin_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  std::vector<std::string> selftest_failures;
  e2e::SelfTest(selftest_failures);
  if (selftest) {
    for (const std::string& failure : selftest_failures) {
      std::printf("FAIL %s\n", failure.c_str());
    }
    std::printf("selftest: %zu failures\n", selftest_failures.size());
    return selftest_failures.empty() ? 0 : 1;
  }

  e2e::RunResult (*run)(const e2e::RunOptions&) = nullptr;
  if (options.workload == "ingest") run = e2e::RunIngest;
  if (options.workload == "query_repeat") run = e2e::RunQueryRepeat;
  if (options.workload == "query_distinct") run = e2e::RunQueryDistinct;
  if (options.workload == "batch_map") run = e2e::RunBatchMap;
  if (run == nullptr) return Usage("unknown or missing --workload");
  if (options.trace) run = e2e::RunTraced;
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");
  // One client thread plus its connections stay within the online CPUs.
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  options.connections =
      std::clamp<size_t>(cpus > 1 ? static_cast<size_t>(cpus - 1) : 1, 1, 3);
  if (options.bin_dir.empty()) options.bin_dir = SelfDirectory();
  options.work_dir =
      options.bin_dir + "/runs/run-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage(("cannot create " + options.work_dir).c_str());

  e2e::RunResult result = run(options);
  std::filesystem::remove_all(options.work_dir, ec);
  for (const std::string& failure : selftest_failures) {
    result.Check(false, "selftest: " + failure);
  }
  for (const e2e::Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.Check(false, metric.name + " is not a finite number");
    }
  }

  std::printf("workload %s seed %llu seconds %g trace %d connections %zu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.connections);
  for (const e2e::Metric& metric : result.metrics) {
    std::printf("  %-40s %14.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const e2e::Metric& note : result.notes) {
    std::printf("  (not gated) %-28s %14.4f %s\n", note.name.c_str(),
                note.value, note.unit.c_str());
  }
  std::printf("  operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  std::printf("  checks: %zu passed, %zu failed\n", result.checks_passed,
              result.checks_failed.size());
  for (const std::string& failure : result.checks_failed) {
    std::printf("  CHECK FAILED: %s\n", failure.c_str());
  }

  const bool correct = result.checks_failed.empty();
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<uint64_t>(result.attempted, 1)
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const e2e::Metric& metric = result.metrics[i];
    json << (i == 0 ? "" : ", ") << "\"" << metric.name
         << "\": {\"value\": " << JsonNumber(metric.value) << ", \"unit\": \""
         << metric.unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
