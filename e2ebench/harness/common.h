#ifndef E2EBENCH_HARNESS_COMMON_H_
#define E2EBENCH_HARNESS_COMMON_H_

// Shared pieces of the end-to-end benchmark: run options, the metric
// tables, op sampling and percentiles, output checks, and the spans the
// traced run records around its calls into the program.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "core/dbdc.h"
#include "core/site.h"
#include "obs/trace.h"

namespace e2e {

/// Every timed window runs at least this many ops, so the nearest-rank
/// p90 always has at least ten samples beyond it.
inline constexpr std::size_t kMinOps = 100;

enum class Workload { kJobs, kWide, kStream };

struct Options {
  Workload workload = Workload::kJobs;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace.
  std::string trace_path;
};

std::string_view WorkloadName(Workload workload);
bool ParseWorkload(std::string_view name, Workload* out);

/// Seconds on the steady clock.
double Now();

/// Child seed `index` of stream `stream` (SplitMix64 finalizer): every
/// input of a run is a pure function of the workload seed.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t index);

/// Nearest-rank q-quantile (0 < q <= 1) of `values`; +inf entries are
/// legal and rank last. Requires a non-empty input.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// FNV-1a digest of a label vector (the per-op output check).
std::uint64_t LabelDigest(std::span<const dbdc::ClusterId> labels);

/// What a DBDC run must reproduce to pass the output check: its labels
/// (as a digest), cluster count and wire counters.
struct RunSignature {
  std::size_t num_labels = 0;
  std::uint64_t label_digest = 0;
  int num_global_clusters = 0;
  std::uint64_t bytes_uplink = 0;
  std::uint64_t bytes_downlink = 0;

  static RunSignature Of(const dbdc::DbdcResult& result);
  bool operator==(const RunSignature&) const = default;
};

/// Q_DBDC of `labels` against the central reference, under P^I with
/// qp = `min_pts` and under P^II.
struct Quality {
  double p1 = 0.0;
  double p2 = 0.0;
};
Quality MeasureQuality(std::span<const dbdc::ClusterId> labels,
                       std::span<const dbdc::ClusterId> central, int min_pts);

/// Peak resident set size of the process so far (getrusage), in MB.
double PeakRssMb();

/// One closed-loop operation as its caller saw it.
struct OpSample {
  double latency_ms = 0.0;
  /// Completion time, seconds since the timed window opened.
  double end_s = 0.0;
  /// Points clustered (for `stream`: updates applied).
  double points = 0.0;
  bool ok = false;
  bool traced = false;
};

/// Latency percentiles and throughput of a window. A failed op counts as
/// infinitely slow, so it misses every latency percentile.
struct LoopSummary {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double points_per_s = 0.0;
};
/// `timed_seconds` is the window's timed wall clock (for a single caller,
/// the sum of its op latencies; the clock pauses for output checks).
LoopSummary Summarize(const std::vector<OpSample>& ops, double timed_seconds);

/// p50 of the traced ops against the untraced ones, in percent.
double TraceOverheadPct(const std::vector<OpSample>& ops);

struct MetricSpec {
  const char* name;
  const char* unit;
  /// Bit i set = the metric is measured on Workload i; elsewhere the
  /// layer does no work and the metric reads 0.
  unsigned workloads;
};
std::span<const MetricSpec> EndToEndMetrics();
std::span<const MetricSpec> PerLayerMetrics();

/// The metrics of one run and the JSON result line that reports them.
class Report {
 public:
  void Set(std::string_view name, double value);
  /// Every metric of the run's table (end-to-end, or per-layer when
  /// traced) must have been set when it applies to the workload; returns
  /// the names that were not.
  std::vector<std::string> Missing(Workload workload, bool trace) const;
  std::string ResultLine(Workload workload, bool trace, bool correct,
                         std::size_t attempted, std::size_t failed) const;

 private:
  std::map<std::string, double, std::less<>> values_;
};

/// Spans the benchmark records around its own calls into the program.
/// Always measures; records into an in-memory obs::Tracer only when
/// enabled, and writes it out as a Chrome trace at the end of the run.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  class Span {
   public:
    /// A null `log` times without recording.
    Span(SpanLog* log, std::string_view name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Closes the span early; returns its duration in seconds.
    double End();

   private:
    dbdc::obs::Tracer* tracer_;
    double start_;
    std::optional<double> elapsed_;
  };

  /// Writes the Chrome trace to `path` (no-op when disabled).
  bool Write(const std::string& path) const;

 private:
  std::optional<dbdc::obs::Tracer> tracer_;
};

/// The index and DBSCAN split of one site partition, replayed on one
/// thread: the index build, every point's eps-neighborhood through
/// BatchRangeQuery, then the local DBSCAN.
struct IndexSplit {
  double build_ms = 0.0;
  double range_query_ms = 0.0;
  double dbscan_ms = 0.0;
  /// eps-neighbors returned, and candidates the SIMD compare rejected.
  double returned = 0.0;
  double filtered = 0.0;

  void Add(const IndexSplit& other);
  /// DBSCAN time outside the range queries.
  double expand_ms() const { return dbscan_ms - range_query_ms; }
  /// eps-neighbors returned per candidate distance-tested.
  double hit_ratio() const;
};
IndexSplit ReplayIndexSplit(const dbdc::Dataset& data,
                            const dbdc::DbdcConfig& config, SpanLog* log);

/// The end-to-end figures of an untraced run besides the loop's latency
/// and throughput.
struct EndToEnd {
  /// Wire bytes per op (or per input, for the pooled workloads).
  std::vector<double> uplink_bytes;
  std::vector<double> downlink_bytes;
  std::vector<Quality> quality;
  double peak_rss_mb = 0.0;
  std::vector<double> setup_s;

  /// Records the wire bytes of one result.
  void AddBytes(const dbdc::DbdcResult& result);
  /// Sets every end-to-end metric of `report`.
  void SetMetrics(const LoopSummary& loop, Report* report) const;
};

/// A DbdcEngine run driven stage by stage, each stage call timed.
struct StagedRun {
  dbdc::DbdcResult result;
  double stage_ms[dbdc::kNumStages] = {};
  /// Engine construction to TakeResult(), and the part of it outside the
  /// stage calls.
  double latency_ms = 0.0;
  double untiled_ms = 0.0;
  /// Messages the run put on its transport.
  double messages = 0.0;
};
/// Runs `config` on `data` stage by stage; `after` then sees the engine's
/// sites, with the clock stopped.
StagedRun RunStaged(
    const dbdc::Dataset& data, const dbdc::DbdcConfig& config, SpanLog* log,
    const std::function<void(const std::vector<dbdc::Site>&)>& after);

/// What a workload hands back to main().
struct Outcome {
  Report report;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// False when a check outside the per-op output checks failed (set-up
  /// runs, replays, quality checkpoints).
  bool checks_passed = true;
  /// Wall-clock seconds of input and reference preparation, of the
  /// set-up samples (taken spread over the window), and of the window
  /// with its checks and set-up samples.
  double prep_s = 0.0;
  double setup_phase_s = 0.0;
  double window_s = 0.0;
};

Outcome RunJobs(const Options& options);
Outcome RunWide(const Options& options);
Outcome RunStream(const Options& options);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_COMMON_H_
