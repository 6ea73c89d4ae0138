// `jobs`: two closed-loop clients submit DBDC jobs to an in-process
// dbdc_server over loopback TCP. Local clustering and relabel dominate a
// job, so index, distance-kernel, DBSCAN and thread-pool changes show here;
// it is also the only workload through the serve wire, the socket and the
// job manager.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <numeric>
#include <thread>

#include "common.h"
#include "common/distance.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/model_codec.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace e2e {
namespace {

using dbdc::serve::JobRequest;

/// Job sizes are stratified over [kSmallestJob, kLargestJob] so the mean
/// job is the same for every seed; the seed shuffles the order and draws
/// the points. dbdc_server delivers a finished job on its next 50 ms poll
/// wake-up, so served latencies come in 50 ms steps and the p50 moves a
/// whole step when a slower host pushes the median job past one; jobs of
/// ~0.45 s keep a step near a tenth of the latency.
constexpr int kPoolSize = 16;
constexpr std::size_t kSmallestJob = 80'000;
constexpr std::size_t kLargestJob = 120'000;
constexpr int kClients = 2;
constexpr int kSites = 4;
constexpr int kThreadsPerJob = 2;
constexpr std::size_t kSetupSamples = 8;
/// The job manager keeps every job's request and result until the
/// server stops, so one server instance serves this many jobs; the
/// clients then move to a fresh one. Peak RSS then measures a fixed
/// amount of retained work instead of growing with throughput.
constexpr int kJobsPerServer = 16;
/// Pool ranks (by size) whose results are scored against central DBSCAN,
/// and which the traced run replays in-process.
constexpr int kSampleRanks[] = {2, 6, 10, 14};
constexpr double kTraceBlockSeconds = 2.5;

struct PoolItem {
  JobRequest request;
  RunSignature reference;
  /// Central DBSCAN labels (only for the kSampleRanks items).
  std::vector<dbdc::ClusterId> central;
  /// Rank of the job size in the pool (0 = smallest).
  int size_rank = 0;
};

std::vector<PoolItem> MakePool(std::uint64_t seed) {
  std::vector<int> ranks(kPoolSize);
  std::iota(ranks.begin(), ranks.end(), 0);
  dbdc::Rng rng(DeriveSeed(seed, 1, 0));
  std::shuffle(ranks.begin(), ranks.end(), rng.engine());
  std::vector<PoolItem> pool(kPoolSize);
  for (int i = 0; i < kPoolSize; ++i) {
    PoolItem& item = pool[static_cast<std::size_t>(i)];
    item.size_rank = ranks[static_cast<std::size_t>(i)];
    const std::size_t n =
        kSmallestJob + static_cast<std::size_t>(item.size_rank) *
                           (kLargestJob - kSmallestJob) / (kPoolSize - 1);
    dbdc::SyntheticDataset dataset =
        dbdc::MakeScaledDataset(n, DeriveSeed(seed, 2, std::uint64_t(i)));
    dbdc::DbdcConfig& config = item.request.config;
    config.local_dbscan = dataset.suggested_params;
    config.num_sites = kSites;
    config.index_type = dbdc::IndexType::kGrid;
    config.model_type = dbdc::LocalModelType::kScor;
    config.num_threads = kThreadsPerJob;
    config.seed = DeriveSeed(seed, 3, std::uint64_t(i));
    item.request.data = std::move(dataset.data);
  }
  // Untimed preparation, two tasks at a time like the served jobs: the
  // local reference run every served result must reproduce, and central
  // DBSCAN (sequential, which keeps no neighbor graph) of the sampled
  // items for the quality criteria. The references run on the jobs' two
  // threads; their allocations also move glibc's adaptive mmap and trim
  // thresholds to where a long-running server has them, so the window
  // does not start with an allocator warm-up.
  std::vector<std::pair<PoolItem*, bool>> tasks;
  for (PoolItem& item : pool) {
    tasks.emplace_back(&item, false);
    if (std::find(std::begin(kSampleRanks), std::end(kSampleRanks),
                  item.size_rank) != std::end(kSampleRanks)) {
      tasks.emplace_back(&item, true);
    }
  }
  dbdc::ThreadPool prep(2);
  prep.ParallelFor(tasks.size(), [&tasks](std::size_t t) {
    PoolItem& item = *tasks[t].first;
    const dbdc::DbdcConfig& config = item.request.config;
    if (!tasks[t].second) {
      item.reference = RunSignature::Of(
          dbdc::RunDbdc(item.request.data, dbdc::Euclidean(), config));
    } else {
      item.central = dbdc::RunCentralDbscan(item.request.data,
                                            dbdc::Euclidean(),
                                            config.local_dbscan,
                                            config.index_type)
                         .clustering.labels;
    }
  });
  return pool;
}

dbdc::serve::ServerOptions MakeServerOptions() {
  dbdc::serve::ServerOptions options;
  options.limits.max_active = kClients;
  return options;
}

/// Per-op values the traced run derives from served results.
struct ServedLayers {
  std::vector<double> overhead_ms;
  std::vector<double> paper_overall_ms;
  std::vector<double> eps_queries;
  std::vector<double> representatives;
  double neighbors_sum = 0.0;
  double neighbors_count = 0.0;
  double relabel_comps = 0.0;
  double relabel_points = 0.0;

  void Add(const dbdc::DbdcResult& result, double latency_ms) {
    double stages_s = 0.0;
    for (const dbdc::StageStats& stage : result.stage_stats) {
      stages_s += stage.seconds;
    }
    overhead_ms.push_back(latency_ms - stages_s * 1e3);
    paper_overall_ms.push_back(result.OverallSeconds() * 1e3);
    const dbdc::obs::MetricsSnapshot& snap = result.metrics_snapshot;
    eps_queries.push_back(static_cast<double>(
        snap.counter(dbdc::obs::Counter::kEpsRangeQueries)));
    representatives.push_back(
        static_cast<double>(result.num_representatives));
    const dbdc::obs::HistogramData& hist =
        snap.histogram(dbdc::obs::Histogram::kRangeQueryNeighbors);
    neighbors_sum += static_cast<double>(hist.sum);
    neighbors_count += static_cast<double>(hist.count);
    relabel_comps += static_cast<double>(
        snap.counter(dbdc::obs::Counter::kRelabelDistanceComps));
    relabel_points += static_cast<double>(
        snap.counter(dbdc::obs::Counter::kRelabelPointsScanned));
  }
};

/// Layer times of one in-process replay of a pool request.
struct Replay {
  double stage_ms[dbdc::kNumStages] = {};
  double untiled_ms = 0.0;
  double messages = 0.0;
  double decode_global_ms = 0.0;
  double global_model_bytes = 0.0;
  double index_build_ms = 0.0;
  double range_query_ms = 0.0;
  double expand_ms = 0.0;
  double hit_ratio = 0.0;
  double request_bytes = 0.0;
  double result_bytes = 0.0;
  double encode_request_ms = 0.0;
  double decode_result_ms = 0.0;
};

/// Replays `item` through the DbdcEngine stage calls and the index
/// calls the served job made, timing each, and the serve codec on the
/// request and the served result. False when the replay's result differs
/// from the served one or a payload fails to decode.
bool ReplayItem(const PoolItem& item, const dbdc::DbdcResult& served,
                SpanLog* log, Replay* out) {
  const JobRequest& request = item.request;
  bool ok = true;
  {
    SpanLog::Span span(log, "serve.encode_request");
    const std::vector<std::uint8_t> bytes =
        dbdc::serve::EncodeJobRequest(request);
    out->encode_request_ms = span.End() * 1e3;
    out->request_bytes = static_cast<double>(bytes.size());
  }
  {
    dbdc::serve::JobResultMsg msg;
    msg.job_id = 1;
    msg.result = served;
    msg.params_used = request.config.local_dbscan;
    const std::vector<std::uint8_t> bytes =
        dbdc::serve::EncodeJobResult(msg);
    out->result_bytes = static_cast<double>(bytes.size());
    dbdc::serve::JobResultMsg decoded;
    SpanLog::Span span(log, "serve.decode_result");
    ok = ok && dbdc::serve::DecodeJobResult(bytes, &decoded) ==
                   dbdc::DecodeStatus::kOk;
    out->decode_result_ms = span.End() * 1e3;
  }

  IndexSplit split;
  const StagedRun run = RunStaged(
      request.data, request.config, log,
      [&](const std::vector<dbdc::Site>& sites) {
        for (const dbdc::Site& site : sites) {
          split.Add(ReplayIndexSplit(site.data(), request.config, log));
        }
      });
  const dbdc::DbdcResult& result = run.result;
  std::copy(std::begin(run.stage_ms), std::end(run.stage_ms), out->stage_ms);
  out->untiled_ms = run.untiled_ms;
  out->messages = run.messages;
  out->index_build_ms = split.build_ms;
  out->range_query_ms = split.range_query_ms;
  out->expand_ms = split.expand_ms();
  out->hit_ratio = split.hit_ratio();
  ok = ok && RunSignature::Of(result) == RunSignature::Of(served);

  // Every receiving site decodes the broadcast payload once.
  const std::vector<std::uint8_t> global =
      dbdc::EncodeGlobalModel(result.global_model);
  out->global_model_bytes = static_cast<double>(global.size());
  {
    SpanLog::Span span(log, "core.decode_global");
    for (int s = 0; s < result.sites_relabeled; ++s) {
      dbdc::GlobalModel decoded;
      ok = ok && dbdc::DecodeGlobalModel(global, &decoded) ==
                     dbdc::DecodeStatus::kOk;
    }
    out->decode_global_ms = span.End() * 1e3;
  }

  return ok;
}

}  // namespace

Outcome RunJobs(const Options& options) {
  Outcome outcome;
  const double run_start = Now();
  const std::vector<PoolItem> pool = MakePool(options.seed);
  outcome.prep_s = Now() - run_start;
  const int min_pts = pool.front().request.config.local_dbscan.min_pts;

  SpanLog log(options.trace);
  std::mutex mu;
  std::vector<OpSample> ops;
  std::vector<std::optional<dbdc::DbdcResult>> first(pool.size());
  ServedLayers served_layers;
  EndToEnd e2e;
  std::atomic<std::size_t> started{0};
  std::size_t jobs_issued[kClients] = {};
  const double window_start = Now();
  const auto window_over = [&] {
    return Now() - window_start >= options.seconds &&
           started.load() >= kMinOps;
  };

  // Each client takes pool items client, client + 2, ... in turn. A
  // server instance serves kJobsPerServer jobs, then the clients move on
  // to a fresh one.
  const auto client_loop = [&](int client, std::uint16_t port,
                               std::atomic<int>* server_quota) {
    dbdc::serve::ClientOptions client_options;
    client_options.port = port;
    while (!window_over() && server_quota->fetch_sub(1) > 0) {
      const double t0 = Now();
      started.fetch_add(1);
      const std::size_t index =
          (static_cast<std::size_t>(client) +
           kClients * jobs_issued[client]++) %
          pool.size();
      const PoolItem& item = pool[index];
      const bool traced =
          options.trace &&
          static_cast<long>((t0 - window_start) / kTraceBlockSeconds) % 2 ==
              1;
      dbdc::serve::RemoteOutcome remote;
      {
        SpanLog::Span span(traced ? &log : nullptr, "serve.remote_job");
        remote = dbdc::serve::RunRemoteJob(item.request, client_options);
      }
      const double t1 = Now();
      OpSample sample;
      sample.latency_ms = (t1 - t0) * 1e3;
      sample.end_s = t1 - window_start;
      sample.points = static_cast<double>(item.request.data.size());
      sample.ok = remote.ok &&
                  RunSignature::Of(remote.result) == item.reference;
      sample.traced = traced;
      if (!remote.ok) {
        std::fprintf(stderr, "jobs: job failed: %s\n", remote.error.c_str());
      }
      const std::lock_guard<std::mutex> lock(mu);
      ops.push_back(sample);
      if (ops.size() == kMinOps) e2e.peak_rss_mb = PeakRssMb();
      if (!sample.ok) continue;
      if (options.trace) served_layers.Add(remote.result, sample.latency_ms);
      if (!first[index].has_value()) first[index] = std::move(remote.result);
    }
  };
  // Every server instance starts with a set-up sample while the clients
  // wait: server construction and start, then its first job alone. The
  // samples are thus spread over the window; they cycle through the
  // kSetupSamples middle job sizes.
  std::vector<double>& setup = e2e.setup_s;
  const auto setup_job = [&](std::size_t sample, std::uint16_t port) {
    const int rank = static_cast<int>(
        (kPoolSize - kSetupSamples) / 2 + sample % kSetupSamples);
    const PoolItem& item = *std::find_if(
        pool.begin(), pool.end(),
        [rank](const PoolItem& p) { return p.size_rank == rank; });
    dbdc::serve::ClientOptions client;
    client.port = port;
    const dbdc::serve::RemoteOutcome remote =
        dbdc::serve::RunRemoteJob(item.request, client);
    return remote.ok && RunSignature::Of(remote.result) == item.reference;
  };
  const auto start_server = [&](dbdc::serve::DbdcServer* server) {
    std::string error;
    if (server->Start(&error)) return true;
    std::fprintf(stderr, "jobs: server start failed: %s\n", error.c_str());
    return false;
  };
  double setup_in_window_s = 0.0;
  while (!window_over()) {
    const double start = Now();
    dbdc::serve::DbdcServer server(MakeServerOptions());
    if (!start_server(&server)) {
      outcome.checks_passed = false;
      return outcome;
    }
    if (setup.size() < kSetupSamples) {
      outcome.checks_passed =
          setup_job(setup.size(), server.port()) && outcome.checks_passed;
      setup.push_back(Now() - start);
      setup_in_window_s += setup.back();
    }
    std::atomic<int> quota{kJobsPerServer};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(client_loop, c, server.port(), &quota);
    }
    for (std::thread& t : clients) t.join();
    server.Stop();
  }
  outcome.window_s = Now() - window_start;
  // A short window can end before every sample was taken.
  while (setup.size() < kSetupSamples) {
    const double start = Now();
    dbdc::serve::DbdcServer server(MakeServerOptions());
    if (!start_server(&server)) {
      outcome.checks_passed = false;
      return outcome;
    }
    outcome.checks_passed =
        setup_job(setup.size(), server.port()) && outcome.checks_passed;
    setup.push_back(Now() - start);
    server.Stop();
  }

  for (const double seconds : setup) outcome.setup_phase_s += seconds;

  // Throughput over the timed wall clock: from the window's start to the
  // last result, without the set-up samples taken in between.
  double last_result_s = 0.0;
  for (const OpSample& op : ops) {
    last_result_s = std::max(last_result_s, op.end_s);
  }
  const LoopSummary summary =
      Summarize(ops, last_result_s - setup_in_window_s);
  outcome.attempted = summary.attempted;
  outcome.failed = summary.failed;

  Report& report = outcome.report;
  if (!options.trace) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (!first[i].has_value()) {
        std::fprintf(stderr, "jobs: pool item %zu never completed\n", i);
        outcome.checks_passed = false;
        return outcome;
      }
      e2e.AddBytes(*first[i]);
      if (!pool[i].central.empty()) {
        e2e.quality.push_back(
            MeasureQuality(first[i]->labels, pool[i].central, min_pts));
      }
    }
    e2e.SetMetrics(summary, &report);
    return outcome;
  }

  // Traced run: replay the stratified pool items in-process.
  std::vector<Replay> replays;
  for (const int rank : kSampleRanks) {
    const auto it = std::find_if(
        pool.begin(), pool.end(),
        [rank](const PoolItem& item) { return item.size_rank == rank; });
    const auto& served = first[static_cast<std::size_t>(it - pool.begin())];
    if (!served.has_value()) {
      outcome.checks_passed = false;
      continue;
    }
    Replay replay;
    if (!ReplayItem(*it, *served, &log, &replay)) {
      std::fprintf(stderr, "jobs: replay of a pool item diverged\n");
      outcome.checks_passed = false;
    }
    replays.push_back(replay);
  }
  if (replays.empty() || served_layers.overhead_ms.empty()) {
    outcome.checks_passed = false;
    return outcome;
  }
  const auto mean_of = [&replays](double Replay::*field) {
    std::vector<double> values;
    for (const Replay& r : replays) values.push_back(r.*field);
    return Mean(values);
  };
  const auto stage_mean = [&replays](dbdc::StageId id) {
    std::vector<double> values;
    for (const Replay& r : replays) {
      values.push_back(r.stage_ms[static_cast<int>(id)]);
    }
    return Mean(values);
  };
  report.Set("core.partition_ms", stage_mean(dbdc::StageId::kPartition));
  report.Set("core.local_cluster_ms",
             stage_mean(dbdc::StageId::kLocalCluster));
  report.Set("core.build_local_model_ms",
             stage_mean(dbdc::StageId::kBuildLocalModel));
  report.Set("core.transmit_ms", stage_mean(dbdc::StageId::kTransmit));
  report.Set("core.merge_global_ms", stage_mean(dbdc::StageId::kMergeGlobal));
  report.Set("core.broadcast_ms", stage_mean(dbdc::StageId::kBroadcast));
  report.Set("core.relabel_ms", stage_mean(dbdc::StageId::kRelabel));
  report.Set("core.untiled_ms", mean_of(&Replay::untiled_ms));
  report.Set("core.paper_overall_ms", Median(served_layers.paper_overall_ms));
  report.Set("core.decode_global_ms", mean_of(&Replay::decode_global_ms));
  report.Set("core.global_model_bytes", mean_of(&Replay::global_model_bytes));
  report.Set("core.representatives", Mean(served_layers.representatives));
  report.Set("core.relabel_comps_per_point",
             served_layers.relabel_comps /
                 std::max(1.0, served_layers.relabel_points));
  report.Set("index.build_ms", mean_of(&Replay::index_build_ms));
  report.Set("index.range_query_ms", mean_of(&Replay::range_query_ms));
  report.Set("index.eps_queries", Mean(served_layers.eps_queries));
  report.Set("index.neighbors_per_query",
             served_layers.neighbors_sum /
                 std::max(1.0, served_layers.neighbors_count));
  report.Set("index.candidate_hit_ratio", mean_of(&Replay::hit_ratio));
  report.Set("cluster.expand_ms", mean_of(&Replay::expand_ms));
  report.Set("distrib.messages_per_op", mean_of(&Replay::messages));
  report.Set("serve.overhead_ms", Median(served_layers.overhead_ms));
  report.Set("serve.request_bytes", mean_of(&Replay::request_bytes));
  report.Set("serve.result_bytes", mean_of(&Replay::result_bytes));
  report.Set("serve.encode_request_ms", mean_of(&Replay::encode_request_ms));
  report.Set("serve.decode_result_ms", mean_of(&Replay::decode_result_ms));
  report.Set("obs.trace_overhead_pct", TraceOverheadPct(ops));
  if (!log.Write(options.trace_path)) outcome.checks_passed = false;
  return outcome;
}

}  // namespace e2e
