// Self-tests of the benchmark's own helpers. Exit code 0 = all passed.
//
//   e2ebench_selftest                 run the checks
//   e2ebench_selftest --list-metrics  print "<table> <name> <unit>" lines
//                                     (test_bench.py compares them with
//                                     BENCHMARK.json)

#include <cstdio>
#include <string_view>
#include <vector>

#include "common.h"
#include "common/distance.h"
#include "data/generators.h"

namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

void TestPercentileLeavesTenBeyondP90() {
  for (std::size_t n = e2e::kMinOps; n <= 1000; ++n) {
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = static_cast<double>(n - i);  // Distinct, unsorted.
    }
    const double p90 = e2e::Percentile(values, 0.9);
    std::size_t beyond = 0;
    for (const double v : values) beyond += v > p90 ? 1 : 0;
    if (beyond < 10) {
      std::fprintf(stderr, "n=%zu: %zu samples beyond p90\n", n, beyond);
      Expect(false, "p90 leaves at least 10 samples beyond it");
      return;
    }
  }
  Expect(e2e::Percentile({3.0, 1.0, 2.0}, 0.5) == 2.0, "median of 3");
  Expect(e2e::Median({4.0, 1.0, 3.0, 2.0}) == 2.0, "nearest-rank median");
}

void TestCorruptedLabelsFailTheOp() {
  const dbdc::SyntheticDataset dataset = dbdc::MakeScaledDataset(2000, 5);
  dbdc::DbdcConfig config;
  config.local_dbscan = dataset.suggested_params;
  config.num_sites = 4;
  const dbdc::DbdcResult reference =
      dbdc::RunDbdc(dataset.data, dbdc::Euclidean(), config);
  dbdc::DbdcResult rerun =
      dbdc::RunDbdc(dataset.data, dbdc::Euclidean(), config);
  const e2e::RunSignature expected = e2e::RunSignature::Of(reference);
  Expect(e2e::RunSignature::Of(rerun) == expected, "rerun passes the check");

  std::vector<e2e::OpSample> ops;
  for (int i = 0; i < 120; ++i) {
    e2e::OpSample op;
    op.latency_ms = 10.0 + i;
    op.points = 2000.0;
    op.ok = e2e::RunSignature::Of(rerun) == expected;
    ops.push_back(op);
  }
  // Flip one point's label, as a broken relabel would.
  rerun.labels[rerun.labels.size() / 2] += 1;
  e2e::OpSample corrupted;
  corrupted.latency_ms = 1.0;
  corrupted.ok = e2e::RunSignature::Of(rerun) == expected;
  ops.push_back(corrupted);
  Expect(!corrupted.ok, "a corrupted label vector fails the check");

  const e2e::LoopSummary summary = e2e::Summarize(ops, 1.0);
  Expect(summary.attempted == 121 && summary.failed == 1,
         "a failed op is counted");
  Expect(summary.p50_ms > 1.0, "a failed op does not pull latency down");
  Expect(summary.points_per_s == 120 * 2000.0,
         "a failed op adds no throughput");

  e2e::Report report;
  const std::string line = report.ResultLine(
      e2e::Workload::kWide, false, false, summary.attempted, summary.failed);
  Expect(line.find("\"correct\": false") != std::string::npos &&
             line.find("\"failed\": 1,") != std::string::npos,
         "the result line reports the failure");
}

void TestMissingMetricsAreNamed() {
  e2e::Report report;
  for (const e2e::MetricSpec& spec : e2e::EndToEndMetrics()) {
    if (std::string_view(spec.name) != "setup_s") report.Set(spec.name, 1.0);
  }
  const std::vector<std::string> missing =
      report.Missing(e2e::Workload::kStream, false);
  Expect(missing.size() == 1 && missing[0] == "setup_s",
         "an unmeasured metric is reported missing");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string_view(argv[1]) == "--list-metrics") {
    for (const e2e::MetricSpec& spec : e2e::EndToEndMetrics()) {
      std::printf("end_to_end %s %s\n", spec.name, spec.unit);
    }
    for (const e2e::MetricSpec& spec : e2e::PerLayerMetrics()) {
      std::printf("per_layer %s %s\n", spec.name, spec.unit);
    }
    return 0;
  }
  TestPercentileLeavesTenBeyondP90();
  TestCorruptedLabelsFailTheOp();
  TestMissingMetricsAreNamed();
  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
