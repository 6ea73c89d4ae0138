// `stream`: continuous mode with 8 StreamingSites on a lossless tree:4
// topology. Every step inserts a batch of drifting points per site,
// expires as many of the oldest ones, then ticks. It is the only write
// path: IncrementalDbscan Insert/Erase on the dynamic grid, beside the
// refresh, aggregator and upsert route. It bypasses serve and the static
// indices.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <numbers>

#include "common.h"
#include "common/distance.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/model_codec.h"
#include "core/streaming_site.h"
#include "distrib/topology.h"
#include "obs/metrics.h"
#include "obs/scope.h"

namespace e2e {
namespace {

constexpr int kSites = 8;
constexpr int kFanout = 4;
/// Active points per site once the window is primed.
constexpr std::size_t kWindow = 2000;
/// Points each site inserts, and expires, per step.
constexpr std::size_t kBatch = 16;
/// Sites sit on a ring. The arc between two adjacent sites is a slot
/// that both of them watch; each slot holds kLanesPerSlot cluster
/// sources on separate radii, so every site sees the same number of
/// sources and every source is seen by two sites.
constexpr int kLanesPerSlot = 2;
constexpr int kLanes = kSites * kLanesPerSlot;
constexpr double kRingRadius = 30.0;
constexpr double kLaneSpacing = 6.0;
constexpr double kSourceStddev = 1.0;
constexpr double kNoiseFraction = 0.05;
/// Every this many steps the next lane (in a seeded order) turns over:
/// its source dies and a new one is born elsewhere in the slot.
constexpr int kTurnoverSteps = 6;
const dbdc::DbscanParams kParams{0.5, 6, 1};
constexpr double kUpdatedFraction = 0.06;
/// The deployment restarts every this many steps (see RunStream); the
/// first kSetupSamples (re)starts are the set-up samples.
constexpr int kEpochSteps = 50;
constexpr std::size_t kSetupSamples = 8;
/// Quality checkpoints: one seeded step in each of these windows of the
/// first kMinOps steps, moved to the next step that rebuilds.
constexpr int kCheckpoints = 8;
constexpr int kCheckpointSpan = 12;
constexpr int kDecodeSamples = 3;
constexpr double kTraceBlockSeconds = 2.5;

using Batch = std::vector<dbdc::Point>;

constexpr double kSlotAngle = 2.0 * std::numbers::pi / kSites;

/// The seeded world the sites observe: one drifting Gaussian source per
/// lane, with a round-robin schedule of source deaths and births. Only
/// positions and the turnover order depend on the seed; how many points
/// each site and source receive does not.
class World {
 public:
  explicit World(std::uint64_t seed)
      : rng_(DeriveSeed(seed, 20, 0)), sources_(kLanes) {
    for (int lane = 0; lane < kLanes; ++lane) {
      turnover_order_.push_back(lane);
      sources_[static_cast<std::size_t>(lane)].far_spot =
          rng_.Uniform(0.0, 1.0) < 0.5;
      Respawn(lane);
    }
    std::shuffle(turnover_order_.begin(), turnover_order_.end(),
                 rng_.engine());
  }

  /// Advances one step and returns each site's new points. Site s sees
  /// the slots on either side of it: s - 1 and s.
  std::vector<Batch> Step() {
    if (++step_ % kTurnoverSteps == 0) {
      Respawn(turnover_order_[static_cast<std::size_t>(
          (step_ / kTurnoverSteps) % kLanes)]);
    }
    std::vector<Batch> batches(kSites);
    for (int s = 0; s < kSites; ++s) {
      const int left_slot = (s + kSites - 1) % kSites;
      for (std::size_t i = 0; i < kBatch; ++i) {
        if (rng_.Uniform(0.0, 1.0) < kNoiseFraction) {
          const double angle =
              kSlotAngle * (s + rng_.Uniform(-1.0, 1.0));
          const double radius =
              kRingRadius + rng_.Uniform(-kLaneSpacing, kLaneSpacing);
          batches[s].push_back(Polar(angle, radius));
          continue;
        }
        const int pick = static_cast<int>(
            rng_.UniformInt(0, 2 * kLanesPerSlot - 1));
        const int slot = pick < kLanesPerSlot ? left_slot : s;
        const Source& source = sources_[static_cast<std::size_t>(
            slot * kLanesPerSlot + pick % kLanesPerSlot)];
        const dbdc::Point center = Polar(source.angle, source.radius);
        batches[s].push_back({rng_.Gaussian(center[0], kSourceStddev),
                              rng_.Gaussian(center[1], kSourceStddev)});
      }
    }
    for (Source& source : sources_) source.angle += source.angular_speed;
    return batches;
  }

 private:
  struct Source {
    double angle = 0.0;
    double radius = 0.0;
    double angular_speed = 0.0;
    bool far_spot = false;
  };

  static dbdc::Point Polar(double angle, double radius) {
    return {radius * std::cos(angle), radius * std::sin(angle)};
  }

  /// A new source for the lane. Successive sources of a lane alternate
  /// between two spots of the slot, so a newborn cluster never lands on
  /// its predecessor's fading one and the two never merge.
  void Respawn(int lane) {
    const int slot = lane / kLanesPerSlot;
    Source& source = sources_[static_cast<std::size_t>(lane)];
    source.far_spot = !source.far_spot;
    source.angle = kSlotAngle * (slot + (source.far_spot ? 0.7 : 0.3) +
                                 rng_.Uniform(-0.05, 0.05));
    source.radius = kRingRadius + kLaneSpacing * (lane % kLanesPerSlot - 0.5);
    source.angular_speed = rng_.Uniform(-1e-4, 1e-4);
  }

  dbdc::Rng rng_;
  std::vector<Source> sources_;
  std::vector<int> turnover_order_;
  long step_ = 0;
};

/// The streaming deployment: sites, their active windows, and the
/// continuous engine over a lossless tree:4.
struct Deployment {
  std::unique_ptr<dbdc::ContinuousDbdc> continuous;
  std::vector<std::unique_ptr<dbdc::StreamingSite>> sites;
  /// Active point ids per site, oldest first (ids grow, so ascending).
  std::vector<std::deque<dbdc::PointId>> active;
};

std::unique_ptr<Deployment> Deploy(const std::vector<Batch>& priming) {
  auto deployment = std::make_unique<Deployment>();
  dbdc::GlobalModelParams global;
  global.index_type = dbdc::IndexType::kGrid;
  deployment->continuous = std::make_unique<dbdc::ContinuousDbdc>(
      dbdc::Euclidean(), global, dbdc::ProtocolConfig{});
  deployment->continuous->SetTopology(
      dbdc::Topology::KaryTree(kSites, kFanout));
  dbdc::RefreshPolicy policy;
  policy.min_cluster_delta = 1;
  policy.updated_fraction = kUpdatedFraction;
  deployment->active.resize(kSites);
  for (int s = 0; s < kSites; ++s) {
    deployment->sites.push_back(std::make_unique<dbdc::StreamingSite>(
        s, dbdc::Euclidean(), kParams, 2, dbdc::LocalModelType::kScor,
        policy));
    deployment->continuous->AttachSite(deployment->sites.back().get());
    for (const dbdc::Point& p : priming[static_cast<std::size_t>(s)]) {
      deployment->active[static_cast<std::size_t>(s)].push_back(
          deployment->sites.back()->Insert(p));
    }
  }
  deployment->continuous->Tick();
  return deployment;
}

/// Each site's active points, oldest first.
std::vector<Batch> Windows(const Deployment& d) {
  std::vector<Batch> windows(d.sites.size());
  for (std::size_t s = 0; s < d.sites.size(); ++s) {
    const dbdc::Dataset& data = d.sites[s]->clustering().data();
    for (const dbdc::PointId id : d.active[s]) {
      const std::span<const double> p = data.point(id);
      windows[s].emplace_back(p.begin(), p.end());
    }
  }
  return windows;
}

/// Every site's labels cover exactly its active points (checked right
/// after a rebuild reached every site).
bool LabelsCoverWindows(const Deployment& d) {
  for (std::size_t s = 0; s < d.sites.size(); ++s) {
    const auto& labels = d.continuous->labels(s);
    const std::deque<dbdc::PointId>& active = d.active[s];
    if (labels.size() != active.size()) return false;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (labels[i].first != active[i]) return false;
    }
  }
  return true;
}

/// Q_DBDC of the current global labels over the union of the active
/// windows, against central DBSCAN of that union.
Quality MeasureStreamQuality(const Deployment& d) {
  dbdc::Dataset all(2);
  std::vector<dbdc::ClusterId> labels;
  for (std::size_t s = 0; s < d.sites.size(); ++s) {
    const dbdc::Dataset& data = d.sites[s]->clustering().data();
    for (const auto& [id, label] : d.continuous->labels(s)) {
      all.Add(data.point(id));
      labels.push_back(label);
    }
  }
  const std::vector<dbdc::ClusterId> central =
      dbdc::RunCentralDbscan(all, dbdc::Euclidean(), kParams,
                             dbdc::IndexType::kGrid)
          .clustering.labels;
  return MeasureQuality(labels, central, kParams.min_pts);
}

/// Whether a rebuild changed the clustering of points labeled both
/// before and after it (up to renaming of the global cluster ids).
bool LabelsChanged(
    const std::vector<std::vector<std::pair<dbdc::PointId, dbdc::ClusterId>>>&
        before,
    const Deployment& d) {
  std::map<dbdc::ClusterId, dbdc::ClusterId> forward;
  std::map<dbdc::ClusterId, dbdc::ClusterId> backward;
  for (std::size_t s = 0; s < before.size(); ++s) {
    const auto& after = d.continuous->labels(s);
    std::size_t j = 0;
    for (const auto& [id, old_label] : before[s]) {
      while (j < after.size() && after[j].first < id) ++j;
      if (j == after.size() || after[j].first != id) continue;
      const dbdc::ClusterId new_label = after[j].second;
      if ((old_label == dbdc::kNoise) != (new_label == dbdc::kNoise)) {
        return true;
      }
      if (old_label == dbdc::kNoise) continue;
      if (forward.try_emplace(old_label, new_label).first->second !=
              new_label ||
          backward.try_emplace(new_label, old_label).first->second !=
              old_label) {
        return true;
      }
    }
  }
  return false;
}

struct Layers {
  double insert_s = 0.0;
  double inserts = 0.0;
  double erase_s = 0.0;
  double erases = 0.0;
  std::vector<double> tick_ms;
  std::vector<double> untiled_ms;
  double ticks = 0.0;
  double refreshes = 0.0;
  double forwards = 0.0;
  double rebuilds = 0.0;
  double useful_rebuilds = 0.0;
  double messages = 0.0;
  std::vector<double> global_model_bytes;
  std::vector<double> representatives;
  std::vector<double> decode_global_ms;
};

}  // namespace

Outcome RunStream(const Options& options) {
  Outcome outcome;
  const double run_start = Now();
  World world(options.seed);
  std::vector<Batch> priming(kSites);
  for (std::size_t step = 0; step < kWindow / kBatch; ++step) {
    const std::vector<Batch> batches = world.Step();
    for (int s = 0; s < kSites; ++s) {
      priming[s].insert(priming[s].end(), batches[s].begin(),
                        batches[s].end());
    }
  }
  std::vector<int> checkpoints;
  dbdc::Rng checkpoint_rng(DeriveSeed(options.seed, 21, 0));
  for (int c = 0; c < kCheckpoints; ++c) {
    checkpoints.push_back(
        c * kCheckpointSpan +
        static_cast<int>(checkpoint_rng.UniformInt(0, kCheckpointSpan / 2)));
  }

  outcome.prep_s = Now() - run_start;

  SpanLog log(options.trace);
  Layers layers;
  dbdc::obs::MetricsRegistry registry;
  std::vector<OpSample> ops;
  EndToEnd e2e;
  std::size_t next_checkpoint = 0;
  double timed_s = 0.0;
  // IncrementalDbscan keeps every point ever inserted and rescans them on
  // erase and refresh, so a step costs more the older the stream is. The
  // deployment therefore restarts every kEpochSteps steps from its current
  // windows, which keeps the mix of stream ages the same in every run
  // whatever its speed. Each (re)start is a set-up sample: site
  // construction, priming every window, and the first tick.
  std::vector<double>& setup = e2e.setup_s;
  const auto deploy = [&](const std::vector<Batch>& windows) {
    const double start = Now();
    std::unique_ptr<Deployment> fresh = Deploy(windows);
    setup.push_back(Now() - start);
    outcome.setup_phase_s += setup.back();
    outcome.checks_passed =
        LabelsCoverWindows(*fresh) && outcome.checks_passed;
    return fresh;
  };
  std::unique_ptr<Deployment> d = deploy(priming);
  const double window_start = Now();
  for (int step = 0;; ++step) {
    if (Now() - window_start >= options.seconds && ops.size() >= kMinOps &&
        next_checkpoint == checkpoints.size()) {
      break;
    }
    if (step > 0 && step % kEpochSteps == 0) d = deploy(Windows(*d));
    dbdc::ContinuousDbdc& continuous = *d->continuous;
    const std::vector<Batch> batches = world.Step();
    const bool traced =
        options.trace &&
        static_cast<long>((Now() - window_start) / kTraceBlockSeconds) % 2 ==
            1;
    std::optional<dbdc::obs::ObsScope> scope;
    if (traced) scope.emplace(&registry, nullptr);
    std::vector<std::vector<std::pair<dbdc::PointId, dbdc::ClusterId>>>
        before;
    if (traced) {
      for (std::size_t s = 0; s < kSites; ++s) {
        before.push_back(continuous.labels(s));
      }
    }
    const dbdc::ContinuousDbdc::Stats stats_before = continuous.stats();
    const std::uint64_t up_before = continuous.transport().BytesUplink();
    const std::uint64_t down_before = continuous.transport().BytesDownlink();
    const std::size_t messages_before = continuous.transport().NumMessages();

    double insert_s = 0.0;
    double erase_s = 0.0;
    SpanLog::Span op(traced ? &log : nullptr, "stream.step");
    for (int s = 0; s < kSites; ++s) {
      dbdc::StreamingSite& site = *d->sites[static_cast<std::size_t>(s)];
      std::deque<dbdc::PointId>& active =
          d->active[static_cast<std::size_t>(s)];
      {
        SpanLog::Span span(traced ? &log : nullptr, "cluster.insert");
        for (const dbdc::Point& p : batches[static_cast<std::size_t>(s)]) {
          active.push_back(site.Insert(p));
        }
        insert_s += span.End();
      }
      SpanLog::Span span(traced ? &log : nullptr, "cluster.erase");
      for (std::size_t i = 0; i < kBatch; ++i) {
        site.Erase(active.front());
        active.pop_front();
      }
      erase_s += span.End();
    }
    double tick_s = 0.0;
    {
      SpanLog::Span span(traced ? &log : nullptr, "core.tick");
      continuous.Tick();
      tick_s = span.End();
    }
    const double latency_s = op.End();
    scope.reset();

    // The clock pauses here: checks are not timed work.
    const dbdc::ContinuousDbdc::Stats& stats = continuous.stats();
    const std::uint64_t rebuilds =
        stats.global_rebuilds - stats_before.global_rebuilds;
    bool ok = stats.refreshes_lost == stats_before.refreshes_lost &&
              stats.broadcasts_lost == stats_before.broadcasts_lost &&
              stats.aggregator_forwards_lost ==
                  stats_before.aggregator_forwards_lost;
    if (rebuilds > 0) {
      ok = ok &&
           stats.broadcasts_delivered - stats_before.broadcasts_delivered ==
               static_cast<std::uint64_t>(kSites) &&
           LabelsCoverWindows(*d);
    }
    timed_s += latency_s;
    OpSample sample;
    sample.latency_ms = latency_s * 1e3;
    sample.end_s = timed_s;
    sample.points = static_cast<double>(2 * kBatch * kSites);
    sample.ok = ok;
    sample.traced = traced;
    ops.push_back(sample);
    if (ops.size() <= kMinOps) {
      e2e.uplink_bytes.push_back(static_cast<double>(
          continuous.transport().BytesUplink() - up_before));
      e2e.downlink_bytes.push_back(static_cast<double>(
          continuous.transport().BytesDownlink() - down_before));
    }
    if (ops.size() == kMinOps) e2e.peak_rss_mb = PeakRssMb();
    if (next_checkpoint < checkpoints.size() &&
        step >= checkpoints[next_checkpoint] && rebuilds > 0) {
      e2e.quality.push_back(MeasureStreamQuality(*d));
      ++next_checkpoint;
    }
    if (!traced) continue;

    layers.insert_s += insert_s;
    layers.inserts += static_cast<double>(kBatch * kSites);
    layers.erase_s += erase_s;
    layers.erases += static_cast<double>(kBatch * kSites);
    layers.tick_ms.push_back(tick_s * 1e3);
    layers.untiled_ms.push_back((latency_s - insert_s - erase_s - tick_s) *
                                1e3);
    layers.ticks += 1.0;
    layers.refreshes +=
        static_cast<double>(stats.refreshes_applied -
                            stats_before.refreshes_applied);
    layers.forwards += static_cast<double>(stats.aggregator_forwards -
                                           stats_before.aggregator_forwards);
    layers.messages += static_cast<double>(
        continuous.transport().NumMessages() - messages_before);
    if (rebuilds == 0) continue;
    layers.rebuilds += 1.0;
    if (LabelsChanged(before, *d)) layers.useful_rebuilds += 1.0;
    const dbdc::GlobalModel& global = continuous.server().global_model();
    const std::vector<std::uint8_t> bytes = dbdc::EncodeGlobalModel(global);
    layers.global_model_bytes.push_back(static_cast<double>(bytes.size()));
    layers.representatives.push_back(
        static_cast<double>(global.NumRepresentatives()));
    std::vector<double> decode_ms;
    for (int i = 0; i < kDecodeSamples; ++i) {
      dbdc::GlobalModel decoded;
      SpanLog::Span span(&log, "core.decode_global");
      outcome.checks_passed = dbdc::DecodeGlobalModel(bytes, &decoded) ==
                                  dbdc::DecodeStatus::kOk &&
                              outcome.checks_passed;
      decode_ms.push_back(span.End() * 1e3);
    }
    layers.decode_global_ms.push_back(Median(decode_ms) * kSites);
  }

  outcome.window_s = Now() - window_start;
  while (setup.size() < kSetupSamples) deploy(Windows(*d));
  setup.resize(kSetupSamples);
  const LoopSummary summary = Summarize(ops, timed_s);
  outcome.attempted = summary.attempted;
  outcome.failed = summary.failed;
  Report& report = outcome.report;
  if (!options.trace) {
    e2e.SetMetrics(summary, &report);
    return outcome;
  }

  if (layers.ticks == 0.0 || layers.rebuilds == 0.0) {
    outcome.checks_passed = false;
    return outcome;
  }
  const dbdc::obs::MetricsSnapshot snap = registry.Snapshot();
  const dbdc::obs::HistogramData& hist =
      snap.histogram(dbdc::obs::Histogram::kRangeQueryNeighbors);
  report.Set("cluster.insert_us", layers.insert_s / layers.inserts * 1e6);
  report.Set("cluster.erase_us", layers.erase_s / layers.erases * 1e6);
  report.Set("core.tick_ms", Mean(layers.tick_ms));
  report.Set("core.untiled_ms", Median(layers.untiled_ms));
  report.Set("core.refreshes_per_tick", layers.refreshes / layers.ticks);
  report.Set("core.aggregator_forwards_per_tick",
             layers.forwards / layers.ticks);
  report.Set("core.rebuild_ratio", layers.rebuilds / layers.ticks);
  report.Set("core.rebuild_useful_ratio",
             layers.useful_rebuilds / layers.rebuilds);
  report.Set("core.global_model_bytes", Mean(layers.global_model_bytes));
  report.Set("core.representatives", Mean(layers.representatives));
  report.Set("core.decode_global_ms", Median(layers.decode_global_ms));
  report.Set("core.relabel_comps_per_point",
             static_cast<double>(snap.counter(
                 dbdc::obs::Counter::kRelabelDistanceComps)) /
                 std::max<double>(1.0, static_cast<double>(snap.counter(
                     dbdc::obs::Counter::kRelabelPointsScanned))));
  report.Set("index.eps_queries",
             static_cast<double>(
                 snap.counter(dbdc::obs::Counter::kEpsRangeQueries)) /
                 layers.ticks);
  report.Set("index.neighbors_per_query",
             static_cast<double>(hist.sum) /
                 std::max<double>(1.0, static_cast<double>(hist.count)));
  report.Set("distrib.messages_per_op", layers.messages / layers.ticks);
  report.Set("obs.trace_overhead_pct", TraceOverheadPct(ops));
  if (!log.Write(options.trace_path)) outcome.checks_passed = false;
  return outcome;
}

}  // namespace e2e
