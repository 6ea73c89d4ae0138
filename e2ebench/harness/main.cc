// End-to-end DBDC benchmark: runs one workload for a timed window, checks
// every op's output, and prints the run's provenance followed by one JSON
// result line (end-to-end metrics, or per-layer metrics with --trace 1).
//
//   e2ebench --workload jobs|wide|stream --seed N --seconds S --trace 0|1
//            [--trace-path FILE]

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common.h"
#include "common/simd_kernels.h"

namespace {

bool ParseArgs(int argc, char** argv, e2e::Options* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!e2e::ParseWorkload(value, &options->workload)) {
        std::fprintf(stderr, "unknown workload '%s'\n", value);
        return false;
      }
      have_workload = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, &end);
      if (*end == '\0' && !(options->seconds > 0.0)) {
        std::fprintf(stderr, "--seconds must be > 0\n");
        return false;
      }
    } else if (flag == "--trace") {
      const std::string_view v = value;
      if (v != "0" && v != "1") {
        std::fprintf(stderr, "--trace must be 0 or 1\n");
        return false;
      }
      options->trace = v == "1";
    } else if (flag == "--trace-path") {
      options->trace_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i - 1]);
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      std::fprintf(stderr, "bad value for %s: '%s'\n", argv[i - 1], value);
      return false;
    }
  }
  if (!have_workload) {
    std::fprintf(stderr, "--workload is required\n");
    return false;
  }
  if (options->trace && options->trace_path.empty()) {
    std::fprintf(stderr, "--trace 1 needs --trace-path\n");
    return false;
  }
  return true;
}

int OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  if (!ParseArgs(argc, argv, &options)) return 2;

  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %d, \"simd_tier\": \"%s\", "
      "\"build_type\": \"%s\"}\n",
      std::string(e2e::WorkloadName(options.workload)).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, OnlineCpus(),
      std::string(dbdc::simd::TierName(dbdc::simd::ActiveTier())).c_str(),
      E2EBENCH_BUILD_TYPE);
  std::fflush(stdout);

  e2e::Outcome outcome;
  switch (options.workload) {
    case e2e::Workload::kJobs: outcome = e2e::RunJobs(options); break;
    case e2e::Workload::kWide: outcome = e2e::RunWide(options); break;
    case e2e::Workload::kStream: outcome = e2e::RunStream(options); break;
  }
  bool correct = outcome.checks_passed && outcome.failed == 0 &&
                 outcome.attempted >= e2e::kMinOps;
  for (const std::string& name :
       outcome.report.Missing(options.workload, options.trace)) {
    std::fprintf(stderr, "metric %s was not measured\n", name.c_str());
    correct = false;
  }
  std::printf(
      "phases: {\"prep_s\": %.3f, \"setup_s\": %.3f, \"window_s\": %.3f}\n",
      outcome.prep_s, outcome.setup_phase_s, outcome.window_s);
  if (options.trace) std::printf("trace: %s\n", options.trace_path.c_str());
  std::printf("%s\n",
              outcome.report
                  .ResultLine(options.workload, options.trace, correct,
                              outcome.attempted, outcome.failed)
                  .c_str());
  return 0;
}
