// `wide`: back-to-back in-process RunDbdc calls over many small sites.
// Per-site clustering is tiny, but every site receives and decodes the
// whole global model, which grows with the site count: broadcast and
// relabel dominate, so the O(sites^2) downlink shows here and index
// changes barely touch it.

#include <algorithm>

#include "common.h"
#include "common/distance.h"
#include "common/thread_pool.h"
#include "core/model_codec.h"
#include "data/generators.h"
#include "distrib/partitioner.h"
#include "obs/metrics.h"
#include "obs/scope.h"

namespace e2e {
namespace {

constexpr int kSites = 256;
constexpr std::size_t kPointsPerSite = 120;
/// Each op runs the next dataset of this list; the seed draws them.
constexpr int kDatasets = 16;
constexpr std::size_t kSetupSamples = 8;
/// Decodes timed per traced op; the median is charged once per
/// receiving site.
constexpr int kDecodeSamples = 5;
constexpr double kTraceBlockSeconds = 2.5;

const dbdc::SpatialSlabPartitioner kSlabs(0);

struct WideInput {
  dbdc::Dataset data{2};
  dbdc::DbdcConfig config;
  RunSignature reference;
  std::vector<dbdc::ClusterId> central;
};

std::vector<WideInput> MakeInputs(std::uint64_t seed) {
  std::vector<WideInput> inputs(kDatasets);
  for (int k = 0; k < kDatasets; ++k) {
    WideInput& input = inputs[static_cast<std::size_t>(k)];
    dbdc::SyntheticDataset dataset = dbdc::MakeScaledDataset(
        kSites * kPointsPerSite, DeriveSeed(seed, 10, std::uint64_t(k)));
    input.config.local_dbscan = dataset.suggested_params;
    input.config.num_sites = kSites;
    input.config.partitioner = &kSlabs;
    input.config.index_type = dbdc::IndexType::kGrid;
    input.config.model_type = dbdc::LocalModelType::kScor;
    input.config.num_threads = 1;
    input.data = std::move(dataset.data);
  }
  // Untimed preparation: the reference run each op must reproduce, and
  // central DBSCAN for the quality criteria.
  dbdc::ThreadPool prep(2);
  prep.ParallelFor(inputs.size(), [&inputs](std::size_t k) {
    WideInput& input = inputs[k];
    input.reference = RunSignature::Of(
        dbdc::RunDbdc(input.data, dbdc::Euclidean(), input.config));
    input.central = dbdc::RunCentralDbscan(input.data, dbdc::Euclidean(),
                                           input.config.local_dbscan,
                                           input.config.index_type)
                        .clustering.labels;
  });
  return inputs;
}

/// Layer values of the traced ops.
struct Layers {
  std::vector<double> stage_ms[dbdc::kNumStages];
  std::vector<double> untiled_ms;
  std::vector<double> paper_overall_ms;
  std::vector<double> decode_global_ms;
  std::vector<double> global_model_bytes;
  std::vector<double> representatives;
  std::vector<double> eps_queries;
  std::vector<double> messages;
  double neighbors_sum = 0.0;
  double neighbors_count = 0.0;
  double relabel_comps = 0.0;
  double relabel_points = 0.0;
  // Index replay, once per dataset.
  std::vector<double> index_build_ms;
  std::vector<double> range_query_ms;
  std::vector<double> expand_ms;
  std::vector<double> hit_ratio;
};

/// Decodes the op's broadcast payload: the median decode, charged once
/// per receiving site. False if a decode fails.
bool ReplayDecode(const dbdc::DbdcResult& result, SpanLog* log,
                  Layers* layers) {
  const std::vector<std::uint8_t> global =
      dbdc::EncodeGlobalModel(result.global_model);
  layers->global_model_bytes.push_back(static_cast<double>(global.size()));
  std::vector<double> samples;
  bool ok = true;
  for (int i = 0; i < kDecodeSamples; ++i) {
    dbdc::GlobalModel decoded;
    SpanLog::Span span(log, "core.decode_global");
    ok = ok && dbdc::DecodeGlobalModel(global, &decoded) ==
                   dbdc::DecodeStatus::kOk;
    samples.push_back(span.End() * 1e3);
  }
  layers->decode_global_ms.push_back(Median(samples) *
                                     result.sites_relabeled);
  return ok;
}

/// The index and DBSCAN split over every site of one op.
void ReplayIndex(const std::vector<dbdc::Site>& sites,
                 const dbdc::DbdcConfig& config, SpanLog* log,
                 Layers* layers) {
  IndexSplit split;
  for (const dbdc::Site& site : sites) {
    split.Add(ReplayIndexSplit(site.data(), config, log));
  }
  layers->index_build_ms.push_back(split.build_ms);
  layers->range_query_ms.push_back(split.range_query_ms);
  layers->expand_ms.push_back(split.expand_ms());
  layers->hit_ratio.push_back(split.hit_ratio());
}

/// One op driven through the DbdcEngine stage calls, each timed, with a
/// metrics registry attached. `*latency_s` covers engine construction to
/// TakeResult(). After the clock stops, replays the broadcast decode and,
/// with `replay_index`, the index split.
dbdc::DbdcResult TracedOp(const WideInput& input, bool replay_index,
                          SpanLog* log, Layers* layers, double* latency_s,
                          bool* replays_ok) {
  dbdc::obs::MetricsRegistry registry;
  dbdc::obs::MetricsSnapshot snap;
  StagedRun run;
  {
    const dbdc::obs::ObsScope scope(&registry, nullptr);
    run = RunStaged(input.data, input.config, log,
                    [&](const std::vector<dbdc::Site>& sites) {
                      snap = registry.Snapshot();
                      if (replay_index) {
                        ReplayIndex(sites, input.config, log, layers);
                      }
                    });
  }
  for (int id = 0; id < dbdc::kNumStages; ++id) {
    layers->stage_ms[id].push_back(run.stage_ms[id]);
  }
  *latency_s = run.latency_ms / 1e3;
  layers->untiled_ms.push_back(run.untiled_ms);
  layers->paper_overall_ms.push_back(run.result.OverallSeconds() * 1e3);
  layers->representatives.push_back(
      static_cast<double>(run.result.num_representatives));
  layers->messages.push_back(run.messages);
  layers->eps_queries.push_back(static_cast<double>(
      snap.counter(dbdc::obs::Counter::kEpsRangeQueries)));
  const dbdc::obs::HistogramData& hist =
      snap.histogram(dbdc::obs::Histogram::kRangeQueryNeighbors);
  layers->neighbors_sum += static_cast<double>(hist.sum);
  layers->neighbors_count += static_cast<double>(hist.count);
  layers->relabel_comps += static_cast<double>(
      snap.counter(dbdc::obs::Counter::kRelabelDistanceComps));
  layers->relabel_points += static_cast<double>(
      snap.counter(dbdc::obs::Counter::kRelabelPointsScanned));
  *replays_ok = ReplayDecode(run.result, log, layers);
  return std::move(run.result);
}

}  // namespace

Outcome RunWide(const Options& options) {
  Outcome outcome;
  const double run_start = Now();
  const std::vector<WideInput> inputs = MakeInputs(options.seed);
  outcome.prep_s = Now() - run_start;
  const dbdc::Metric& metric = dbdc::Euclidean();

  SpanLog log(options.trace);
  Layers layers;
  std::vector<bool> index_replayed(inputs.size(), false);
  std::vector<OpSample> ops;
  std::vector<std::optional<dbdc::DbdcResult>> first(inputs.size());
  double timed_s = 0.0;
  EndToEnd e2e;
  std::vector<double>& setup = e2e.setup_s;
  // Set-up samples, spread over the window with the clock paused: a first
  // RunDbdc (it keeps no state between calls) on each of the first
  // kSetupSamples datasets.
  const auto take_setup_sample = [&] {
    const WideInput& input = inputs[setup.size()];
    const double start = Now();
    const dbdc::DbdcResult result =
        dbdc::RunDbdc(input.data, metric, input.config);
    setup.push_back(Now() - start);
    outcome.setup_phase_s += setup.back();
    if (RunSignature::Of(result) != input.reference) {
      outcome.checks_passed = false;
    }
  };
  const double window_start = Now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = Now() - window_start;
    if (elapsed >= options.seconds && ops.size() >= kMinOps) break;
    if (setup.size() < kSetupSamples &&
        elapsed >= options.seconds * static_cast<double>(setup.size()) /
                       kSetupSamples) {
      take_setup_sample();
    }
    const std::size_t k = i % inputs.size();
    const WideInput& input = inputs[k];
    const bool traced =
        options.trace &&
        static_cast<long>((Now() - window_start) / kTraceBlockSeconds) % 2 ==
            1;
    double latency_s = 0.0;
    dbdc::DbdcResult result;
    if (traced) {
      bool replays_ok = false;
      result = TracedOp(input, !index_replayed[k], &log, &layers, &latency_s,
                        &replays_ok);
      index_replayed[k] = true;
      outcome.checks_passed = replays_ok && outcome.checks_passed;
    } else {
      const double start = Now();
      result = dbdc::RunDbdc(input.data, metric, input.config);
      latency_s = Now() - start;
    }
    // The clock pauses here: checks and replays are not timed work.
    timed_s += latency_s;
    OpSample sample;
    sample.latency_ms = latency_s * 1e3;
    sample.end_s = timed_s;
    sample.points = static_cast<double>(input.data.size());
    sample.ok = RunSignature::Of(result) == input.reference;
    sample.traced = traced;
    ops.push_back(sample);
    if (ops.size() == kMinOps) e2e.peak_rss_mb = PeakRssMb();
    if (sample.ok && !first[k].has_value()) first[k] = std::move(result);
  }

  outcome.window_s = Now() - window_start;
  while (setup.size() < kSetupSamples) take_setup_sample();
  const LoopSummary summary = Summarize(ops, timed_s);
  outcome.attempted = summary.attempted;
  outcome.failed = summary.failed;
  Report& report = outcome.report;
  if (!options.trace) {
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      if (!first[k].has_value()) {
        outcome.checks_passed = false;
        return outcome;
      }
      e2e.AddBytes(*first[k]);
      e2e.quality.push_back(MeasureQuality(
          first[k]->labels, inputs[k].central,
          inputs[k].config.local_dbscan.min_pts));
    }
    e2e.SetMetrics(summary, &report);
    return outcome;
  }

  if (layers.untiled_ms.empty() || layers.index_build_ms.empty()) {
    outcome.checks_passed = false;
    return outcome;
  }
  const auto stage_median = [&layers](dbdc::StageId id) {
    return Median(layers.stage_ms[static_cast<int>(id)]);
  };
  report.Set("core.partition_ms", stage_median(dbdc::StageId::kPartition));
  report.Set("core.local_cluster_ms",
             stage_median(dbdc::StageId::kLocalCluster));
  report.Set("core.build_local_model_ms",
             stage_median(dbdc::StageId::kBuildLocalModel));
  report.Set("core.transmit_ms", stage_median(dbdc::StageId::kTransmit));
  report.Set("core.merge_global_ms",
             stage_median(dbdc::StageId::kMergeGlobal));
  report.Set("core.broadcast_ms", stage_median(dbdc::StageId::kBroadcast));
  report.Set("core.relabel_ms", stage_median(dbdc::StageId::kRelabel));
  report.Set("core.untiled_ms", Median(layers.untiled_ms));
  report.Set("core.paper_overall_ms", Median(layers.paper_overall_ms));
  report.Set("core.decode_global_ms", Median(layers.decode_global_ms));
  report.Set("core.global_model_bytes", Mean(layers.global_model_bytes));
  report.Set("core.representatives", Mean(layers.representatives));
  report.Set("core.relabel_comps_per_point",
             layers.relabel_comps / std::max(1.0, layers.relabel_points));
  report.Set("index.build_ms", Mean(layers.index_build_ms));
  report.Set("index.range_query_ms", Mean(layers.range_query_ms));
  report.Set("index.eps_queries", Mean(layers.eps_queries));
  report.Set("index.neighbors_per_query",
             layers.neighbors_sum / std::max(1.0, layers.neighbors_count));
  report.Set("index.candidate_hit_ratio", Mean(layers.hit_ratio));
  report.Set("cluster.expand_ms", Mean(layers.expand_ms));
  report.Set("distrib.messages_per_op", Mean(layers.messages));
  report.Set("obs.trace_overhead_pct", TraceOverheadPct(ops));
  if (!log.Write(options.trace_path)) outcome.checks_passed = false;
  return outcome;
}

}  // namespace e2e
