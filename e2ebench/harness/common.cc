#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cfloat>
#include <charconv>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/distance.h"
#include "core/engine.h"
#include "core/local_model.h"
#include "eval/quality.h"
#include "index/index_factory.h"
#include "obs/metrics.h"
#include "obs/scope.h"

namespace e2e {
namespace {

constexpr unsigned kJ = 1u << static_cast<int>(Workload::kJobs);
constexpr unsigned kW = 1u << static_cast<int>(Workload::kWide);
constexpr unsigned kS = 1u << static_cast<int>(Workload::kStream);
constexpr unsigned kAll = kJ | kW | kS;

// The names and units below must match BENCHMARK.json; run.py checks
// every result line against it.
constexpr MetricSpec kEndToEnd[] = {
    {"latency_p50_ms", "ms", kAll},
    {"latency_p90_ms", "ms", kAll},
    {"points_per_s", "pts/s", kAll},
    {"uplink_bytes", "B", kAll},
    {"downlink_bytes", "B", kAll},
    {"quality_p1", "ratio", kAll},
    {"quality_p2", "ratio", kAll},
    {"peak_rss_mb", "MB", kAll},
    {"setup_s", "s", kAll},
    {"ok_ratio", "ratio", kAll},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.partition_ms", "ms", kJ | kW},
    {"core.local_cluster_ms", "ms", kJ | kW},
    {"core.build_local_model_ms", "ms", kJ | kW},
    {"core.transmit_ms", "ms", kJ | kW},
    {"core.merge_global_ms", "ms", kJ | kW},
    {"core.broadcast_ms", "ms", kJ | kW},
    {"core.relabel_ms", "ms", kJ | kW},
    {"core.untiled_ms", "ms", kAll},
    {"core.paper_overall_ms", "ms", kJ | kW},
    {"core.decode_global_ms", "ms", kAll},
    {"core.global_model_bytes", "B", kAll},
    {"core.representatives", "count", kAll},
    {"core.relabel_comps_per_point", "ratio", kAll},
    {"index.build_ms", "ms", kJ | kW},
    {"index.range_query_ms", "ms", kJ | kW},
    {"index.eps_queries", "count", kAll},
    {"index.neighbors_per_query", "count", kAll},
    {"index.candidate_hit_ratio", "ratio", kJ | kW},
    {"cluster.expand_ms", "ms", kJ | kW},
    {"cluster.insert_us", "us", kS},
    {"cluster.erase_us", "us", kS},
    {"core.tick_ms", "ms", kS},
    {"core.refreshes_per_tick", "count", kS},
    {"core.aggregator_forwards_per_tick", "count", kS},
    {"core.rebuild_ratio", "ratio", kS},
    {"core.rebuild_useful_ratio", "ratio", kS},
    {"distrib.messages_per_op", "count", kAll},
    {"serve.overhead_ms", "ms", kJ},
    {"serve.request_bytes", "B", kJ},
    {"serve.result_bytes", "B", kJ},
    {"serve.encode_request_ms", "ms", kJ},
    {"serve.decode_result_ms", "ms", kJ},
    {"obs.trace_overhead_pct", "%", kAll},
};

/// The DBSCAN sweep resolves its seeds in blocks of this many queries;
/// the index replay batches the same way.
constexpr std::size_t kReplayBlock = 32;

bool Applies(const MetricSpec& spec, Workload workload) {
  return (spec.workloads & (1u << static_cast<int>(workload))) != 0;
}

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Shortest decimal that reads back as exactly `value`. A failed op's
/// infinite latency prints as the largest finite double, so the line
/// stays valid JSON.
std::string JsonNumber(double value) {
  if (std::isinf(value)) value = std::copysign(DBL_MAX, value);
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

}  // namespace

std::string_view WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kJobs: return "jobs";
    case Workload::kWide: return "wide";
    case Workload::kStream: return "stream";
  }
  return "unknown";
}

bool ParseWorkload(std::string_view name, Workload* out) {
  for (const Workload w : {Workload::kJobs, Workload::kWide,
                           Workload::kStream}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t index) {
  return Mix(Mix(Mix(seed) ^ stream) ^ index);
}

double Percentile(std::vector<double> values, double q) {
  DBDC_CHECK(!values.empty() && q > 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // The epsilon keeps q*n that is an integer in exact arithmetic (0.9 *
  // 100) from rounding up to the next rank.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Mean(const std::vector<double>& values) {
  DBDC_CHECK(!values.empty());
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::uint64_t LabelDigest(std::span<const dbdc::ClusterId> labels) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const dbdc::ClusterId label : labels) {
    auto word = static_cast<std::uint32_t>(label);
    for (int b = 0; b < 4; ++b) {
      hash ^= word & 0xffu;
      hash *= 0x100000001b3ULL;
      word >>= 8;
    }
  }
  return hash;
}

RunSignature RunSignature::Of(const dbdc::DbdcResult& result) {
  RunSignature sig;
  sig.num_labels = result.labels.size();
  sig.label_digest = LabelDigest(result.labels);
  sig.num_global_clusters = result.num_global_clusters;
  sig.bytes_uplink = result.bytes_uplink;
  sig.bytes_downlink = result.bytes_downlink;
  return sig;
}

Quality MeasureQuality(std::span<const dbdc::ClusterId> labels,
                       std::span<const dbdc::ClusterId> central,
                       int min_pts) {
  return Quality{dbdc::QualityP1(labels, central, min_pts),
                 dbdc::QualityP2(labels, central)};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux.
}

LoopSummary Summarize(const std::vector<OpSample>& ops,
                      double timed_seconds) {
  LoopSummary summary;
  summary.attempted = ops.size();
  if (ops.empty()) return summary;
  std::vector<double> latencies;
  latencies.reserve(ops.size());
  double points = 0.0;
  for (const OpSample& op : ops) {
    if (op.ok) {
      latencies.push_back(op.latency_ms);
      points += op.points;
    } else {
      ++summary.failed;
      latencies.push_back(std::numeric_limits<double>::infinity());
    }
  }
  summary.p50_ms = Percentile(latencies, 0.5);
  summary.p90_ms = Percentile(latencies, 0.9);
  summary.points_per_s = timed_seconds > 0.0 ? points / timed_seconds : 0.0;
  return summary;
}

double TraceOverheadPct(const std::vector<OpSample>& ops) {
  std::vector<double> traced;
  std::vector<double> untraced;
  for (const OpSample& op : ops) {
    if (!op.ok) continue;
    (op.traced ? traced : untraced).push_back(op.latency_ms);
  }
  if (traced.empty() || untraced.empty()) return 0.0;
  return (Median(traced) / Median(untraced) - 1.0) * 100.0;
}

std::span<const MetricSpec> EndToEndMetrics() { return kEndToEnd; }
std::span<const MetricSpec> PerLayerMetrics() { return kPerLayer; }

void Report::Set(std::string_view name, double value) {
  values_[std::string(name)] = value;
}

std::vector<std::string> Report::Missing(Workload workload,
                                         bool trace) const {
  std::vector<std::string> missing;
  for (const MetricSpec& spec : trace ? PerLayerMetrics()
                                      : EndToEndMetrics()) {
    if (Applies(spec, workload) && values_.find(spec.name) == values_.end()) {
      missing.emplace_back(spec.name);
    }
  }
  return missing;
}

std::string Report::ResultLine(Workload workload, bool trace, bool correct,
                               std::size_t attempted,
                               std::size_t failed) const {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : trace ? PerLayerMetrics()
                                      : EndToEndMetrics()) {
    const auto it = values_.find(spec.name);
    // A layer the workload never enters did no work: it reads 0.
    const double value =
        it != values_.end() && Applies(spec, workload) ? it->second : 0.0;
    if (!first) line += ", ";
    first = false;
    line += "\"";
    line += spec.name;
    line += "\": {\"value\": " + JsonNumber(value) + ", \"unit\": \"";
    line += spec.unit;
    line += "\"}";
  }
  line += "}}";
  return line;
}

void IndexSplit::Add(const IndexSplit& other) {
  build_ms += other.build_ms;
  range_query_ms += other.range_query_ms;
  dbscan_ms += other.dbscan_ms;
  returned += other.returned;
  filtered += other.filtered;
}

double IndexSplit::hit_ratio() const {
  return returned + filtered > 0.0 ? returned / (returned + filtered) : 0.0;
}

IndexSplit ReplayIndexSplit(const dbdc::Dataset& data,
                            const dbdc::DbdcConfig& config, SpanLog* log) {
  IndexSplit split;
  const dbdc::DbscanParams& params = config.local_dbscan;
  SpanLog::Span build(log, "index.build");
  const std::unique_ptr<dbdc::NeighborIndex> index = dbdc::CreateIndex(
      config.index_type, data, dbdc::Euclidean(), params.eps, config.approx);
  split.build_ms = build.End() * 1e3;

  // DBSCAN expands clusters outward from their seeds, so consecutive
  // queries are spatial neighbors; the replay keeps that locality by
  // querying in eps-cell order.
  std::vector<dbdc::PointId> ids(data.size());
  std::iota(ids.begin(), ids.end(), 0);
  const auto cell = [&](dbdc::PointId id, int axis) {
    return std::floor(data.point(id)[static_cast<std::size_t>(axis)] /
                      params.eps);
  };
  std::sort(ids.begin(), ids.end(), [&](dbdc::PointId a, dbdc::PointId b) {
    for (int axis = 0; axis < data.dim(); ++axis) {
      if (cell(a, axis) != cell(b, axis)) return cell(a, axis) < cell(b, axis);
    }
    return a < b;
  });
  std::vector<dbdc::PointId> neighbor_ids;
  std::vector<std::size_t> counts;
  dbdc::obs::MetricsRegistry registry;
  {
    const dbdc::obs::ObsScope scope(&registry, nullptr);
    SpanLog::Span span(log, "index.range_query");
    for (std::size_t begin = 0; begin < ids.size(); begin += kReplayBlock) {
      const std::size_t n = std::min(kReplayBlock, ids.size() - begin);
      index->BatchRangeQuery(std::span(ids).subspan(begin, n), params.eps,
                             &neighbor_ids, &counts);
      split.returned += static_cast<double>(neighbor_ids.size());
    }
    split.range_query_ms = span.End() * 1e3;
  }
  split.filtered = static_cast<double>(
      registry.CounterValue(dbdc::obs::Counter::kSimdCandidatesFiltered));

  dbdc::DbscanParams single = params;
  single.threads = 1;
  SpanLog::Span span(log, "cluster.local_dbscan");
  dbdc::RunLocalDbscan(*index, single);
  split.dbscan_ms = span.End() * 1e3;
  return split;
}

void EndToEnd::AddBytes(const dbdc::DbdcResult& result) {
  uplink_bytes.push_back(static_cast<double>(result.bytes_uplink));
  downlink_bytes.push_back(static_cast<double>(result.bytes_downlink));
}

void EndToEnd::SetMetrics(const LoopSummary& loop, Report* report) const {
  std::vector<double> p1;
  std::vector<double> p2;
  for (const Quality& q : quality) {
    p1.push_back(q.p1);
    p2.push_back(q.p2);
  }
  report->Set("latency_p50_ms", loop.p50_ms);
  report->Set("latency_p90_ms", loop.p90_ms);
  report->Set("points_per_s", loop.points_per_s);
  report->Set("uplink_bytes", Mean(uplink_bytes));
  report->Set("downlink_bytes", Mean(downlink_bytes));
  report->Set("quality_p1", Mean(p1));
  report->Set("quality_p2", Mean(p2));
  report->Set("peak_rss_mb", peak_rss_mb);
  report->Set("setup_s", Median(setup_s));
  report->Set("ok_ratio", 1.0 - static_cast<double>(loop.failed) /
                                    static_cast<double>(loop.attempted));
}

StagedRun RunStaged(
    const dbdc::Dataset& data, const dbdc::DbdcConfig& config, SpanLog* log,
    const std::function<void(const std::vector<dbdc::Site>&)>& after) {
  StagedRun run;
  SpanLog::Span op(log, "op");
  dbdc::DbdcEngine engine(data, dbdc::Euclidean(), config);
  double stages_s = 0.0;
  const auto stage = [&](dbdc::StageId id, void (dbdc::DbdcEngine::*call)()) {
    SpanLog::Span span(log, "core." + std::string(dbdc::StageName(id)));
    (engine.*call)();
    const double s = span.End();
    run.stage_ms[static_cast<int>(id)] = s * 1e3;
    stages_s += s;
  };
  stage(dbdc::StageId::kPartition, &dbdc::DbdcEngine::Partition);
  stage(dbdc::StageId::kLocalCluster, &dbdc::DbdcEngine::LocalCluster);
  stage(dbdc::StageId::kBuildLocalModel, &dbdc::DbdcEngine::BuildLocalModel);
  stage(dbdc::StageId::kTransmit, &dbdc::DbdcEngine::Transmit);
  stage(dbdc::StageId::kMergeGlobal, &dbdc::DbdcEngine::MergeGlobal);
  stage(dbdc::StageId::kBroadcast, &dbdc::DbdcEngine::Broadcast);
  stage(dbdc::StageId::kRelabel, &dbdc::DbdcEngine::Relabel);
  run.result = engine.TakeResult();
  const double latency_s = op.End();
  run.latency_ms = latency_s * 1e3;
  run.untiled_ms = (latency_s - stages_s) * 1e3;
  run.messages =
      static_cast<double>(engine.context().transport->NumMessages());
  if (after) after(engine.sites());
  return run;
}

SpanLog::SpanLog(bool enabled) {
  if (enabled) tracer_.emplace();
}

SpanLog::Span::Span(SpanLog* log, std::string_view name)
    : tracer_(log != nullptr && log->tracer_.has_value() ? &*log->tracer_
                                                         : nullptr),
      start_(Now()) {
  if (tracer_ != nullptr) tracer_->BeginSpan(name, "e2ebench");
}

SpanLog::Span::~Span() { End(); }

double SpanLog::Span::End() {
  if (!elapsed_.has_value()) {
    elapsed_ = Now() - start_;
    if (tracer_ != nullptr) tracer_->EndSpan();
  }
  return *elapsed_;
}

bool SpanLog::Write(const std::string& path) const {
  return !tracer_.has_value() || tracer_->WriteChromeTrace(path);
}

}  // namespace e2e
