#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ao::obs {

/// Every metric of the daemon's Prometheus exposition surface, one
/// enumerator per time series family. Names/kinds/help live in
/// `kMetricNames` (and friends) in metrics.cpp; the names are protocol
/// surface, documented in the metric glossary of docs/observability.md and
/// kept in sync by check_markdown_links.py --glossary.
enum class Metric {
  // Counters — monotone lifetime totals, added to where the event happens
  // (queue rejections and plan-cache hits/misses: restated at scrape from
  // the module that owns them).
  kCampaignsTotal,
  kCampaignsShardedTotal,
  kCampaignsAbortedTotal,
  kCampaignsDeadlineExpiredTotal,
  kQueueRejectedTotal,
  kJobsExecutedTotal,
  kCacheHitsTotal,
  kRecordsStreamedTotal,
  kMergedEntriesTotal,
  kRemoteShardsTotal,
  kShardRetriesTotal,
  kOutboxBlockedTotal,
  kOutboxDroppedTotal,
  kPlanCacheHitsTotal,
  kPlanCacheMissesTotal,
  kQueriesTotal,
  kQueryRecordsTotal,
  kFollowsTotal,
  kStaleCursorsTotal,
  // Gauges — point-in-time fleet state, set at scrape (outbox peak: a max
  // update as each campaign's outbox closes).
  kQueueDepth,
  kCampaignsRunning,
  kOutboxPeakDepth,
  kWorkersConnected,
  kWorkersIdle,
  kWorkerRttNs,          ///< labelled worker="<name>"
  kWorkerClockOffsetNs,  ///< labelled worker="<name>"
  // Histograms — observed per completed campaign.
  kPhaseDurationNs,  ///< labelled phase="<phase-name>"
};

inline constexpr std::size_t kMetricCount =
    static_cast<std::size_t>(Metric::kPhaseDurationNs) + 1;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// The exposed family name ("ao_campaigns_total", ...). Stable surface.
const char* metric_name(Metric metric);
MetricKind metric_kind(Metric metric);

/// The daemon's one counter store + Prometheus text renderer.
///
/// Counters are added to at the place the event happens, so every reader —
/// the `metrics` exposition and the `stats` line alike — sees one value.
/// Gauges are set (or max-updated) to their current value; histograms
/// accumulate observations as spans complete. Every unlabelled counter and
/// gauge starts at 0, so the first scrape already shows the full surface.
/// Labelled families (worker=..., phase=...) hold one sample per label
/// value. Thread-safe.
class MetricsRegistry {
 public:
  /// One consistent read of the registry: every unlabelled counter/gauge
  /// value, plus each histogram sample's count and sum by label value.
  struct Snapshot {
    struct HistogramTotals {
      std::uint64_t count = 0;
      std::uint64_t sum = 0;
    };
    std::array<std::int64_t, kMetricCount> values{};
    std::array<std::map<std::string, HistogramTotals>, kMetricCount>
        histograms;

    std::int64_t operator[](Metric metric) const {
      return values[static_cast<std::size_t>(metric)];
    }
  };

  MetricsRegistry();

  /// Fixed histogram bucket upper bounds in nanoseconds (1µs … 10s); an
  /// implicit +Inf bucket tops them off.
  static const std::vector<std::uint64_t>& histogram_buckets();

  /// Sets a counter/gauge sample. `label` is the label *value* (the key is
  /// implied by the family); "" addresses the unlabelled sample.
  void set(Metric metric, std::int64_t value, const std::string& label = {});

  /// Adds each delta to its unlabelled sample, all under one lock: one
  /// settlement's counters never render half-applied.
  void add(std::initializer_list<std::pair<Metric, std::int64_t>> deltas);

  /// Raises an unlabelled gauge to `value` when that is larger.
  void set_max(Metric metric, std::int64_t value);

  /// Swaps a labelled family's full sample set in one step under the
  /// registry lock. Scrape-time rebuilds of per-worker gauges go through
  /// this: a retired endpoint's series must vanish, and concurrent scrapes
  /// on other session threads must never render the family half-rebuilt.
  void replace(Metric metric, std::map<std::string, std::int64_t> samples);

  /// Adds one observation to a histogram family sample.
  void observe(Metric metric, std::uint64_t value,
               const std::string& label = {});

  /// The full exposition: `# HELP`/`# TYPE` metadata for every family
  /// (samples only where data exists) in Prometheus/OpenMetrics text
  /// format, terminated by the OpenMetrics `# EOF` marker — the line
  /// protocol's end-of-reply sentinel for the `metrics` command.
  std::string render() const;

  /// Copies every value under the registry lock — what `stats` prints.
  Snapshot snapshot() const;

 private:
  struct Histogram {
    std::vector<std::uint64_t> buckets;  ///< counts per histogram_buckets()
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::string, std::int64_t> values_[kMetricCount];
  std::map<std::string, Histogram> histograms_[kMetricCount];
};

}  // namespace ao::obs
