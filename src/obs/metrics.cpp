#include "obs/metrics.hpp"

#include <algorithm>
#include <array>

namespace ao::obs {
namespace {

// The metric glossary — index = static_cast<size_t>(Metric). These names
// are protocol surface (the `metrics` command / ao_campaignctl metrics);
// docs/observability.md lists every one and CI enforces the listing
// (check_markdown_links.py --glossary reads this initializer).
constexpr std::array<const char*, kMetricCount> kMetricNames = {
    "ao_campaigns_total",
    "ao_campaigns_sharded_total",
    "ao_campaigns_aborted_total",
    "ao_campaigns_deadline_expired_total",
    "ao_queue_rejected_total",
    "ao_jobs_executed_total",
    "ao_cache_hits_total",
    "ao_records_streamed_total",
    "ao_merged_entries_total",
    "ao_remote_shards_total",
    "ao_shard_retries_total",
    "ao_outbox_blocked_total",
    "ao_outbox_dropped_total",
    "ao_plan_cache_hits_total",
    "ao_plan_cache_misses_total",
    "ao_queries_total",
    "ao_query_records_total",
    "ao_follows_total",
    "ao_stale_cursors_total",
    "ao_queue_depth",
    "ao_campaigns_running",
    "ao_outbox_peak_depth",
    "ao_workers_connected",
    "ao_workers_idle",
    "ao_worker_rtt_ns",
    "ao_worker_clock_offset_ns",
    "ao_phase_duration_ns",
};

constexpr std::array<const char*, kMetricCount> kMetricHelp = {
    "Campaigns completed since daemon start.",
    "Completed campaigns that ran sharded.",
    "Campaigns cancelled by the abort command.",
    "Campaigns cancelled by an expired deadline.",
    "Campaign submissions rejected at admission.",
    "Jobs executed by in-process campaign schedulers.",
    "Jobs served from the warm result cache.",
    "Measurement records streamed to clients.",
    "Store entries merged from shard results.",
    "Shards executed on remote workers.",
    "Shards re-dispatched after a worker endpoint died.",
    "Times a session outbox filled and blocked its producer.",
    "Outbox lines discarded by campaign cancellation.",
    "Campaign checkouts served from the compiled plan cache.",
    "Campaign checkouts that had to compile their expansion.",
    "Store queries served through the secondary index.",
    "Entry lines streamed by query and follow replies.",
    "Campaign record streams resumed via the follow command.",
    "Reads rejected because their cursor outlived a store rewrite.",
    "Campaigns waiting in the admission queue.",
    "Campaigns currently running.",
    "Largest session outbox depth seen.",
    "Remote worker endpoints currently connected.",
    "Connected remote workers currently idle.",
    "Last heartbeat round-trip time per worker endpoint.",
    "Estimated worker-minus-daemon clock offset per endpoint.",
    "Distribution of span durations per lifecycle phase.",
};

/// The label *key* each labelled family uses; "" = unlabelled.
constexpr std::array<const char*, kMetricCount> kMetricLabelKeys = {
    "", "", "", "", "", "", "", "", "", "", "", "", "", "", "", "", "", "",
    "", "", "", "", "", "", "worker", "worker", "phase",
};

MetricKind kind_of(std::size_t index) {
  if (index >= static_cast<std::size_t>(Metric::kPhaseDurationNs)) {
    return MetricKind::kHistogram;
  }
  if (index >= static_cast<std::size_t>(Metric::kQueueDepth)) {
    return MetricKind::kGauge;
  }
  return MetricKind::kCounter;
}

/// Prometheus label-value escaping: backslash, double quote, newline.
void append_label_value(std::string& out, const std::string& value) {
  for (const char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
}

void append_sample_name(std::string& out, const char* family,
                        const char* suffix, const char* label_key,
                        const std::string& label_value,
                        const char* extra_key = nullptr,
                        const std::string& extra_value = {}) {
  out += family;
  out += suffix;
  const bool labelled = label_key[0] != '\0' && !label_value.empty();
  if (!labelled && extra_key == nullptr) {
    return;
  }
  out += '{';
  if (labelled) {
    out += label_key;
    out += "=\"";
    append_label_value(out, label_value);
    out += '"';
    if (extra_key != nullptr) {
      out += ',';
    }
  }
  if (extra_key != nullptr) {
    out += extra_key;
    out += "=\"";
    out += extra_value;
    out += '"';
  }
  out += '}';
}

}  // namespace

const char* metric_name(Metric metric) {
  return kMetricNames[static_cast<std::size_t>(metric)];
}

MetricKind metric_kind(Metric metric) {
  return kind_of(static_cast<std::size_t>(metric));
}

const std::vector<std::uint64_t>& MetricsRegistry::histogram_buckets() {
  static const std::vector<std::uint64_t> kBuckets = {
      1'000,          // 1µs
      10'000,         // 10µs
      100'000,        // 100µs
      1'000'000,      // 1ms
      10'000'000,     // 10ms
      100'000'000,    // 100ms
      1'000'000'000,  // 1s
      10'000'000'000  // 10s
  };
  return kBuckets;
}

MetricsRegistry::MetricsRegistry() {
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    if (kind_of(i) != MetricKind::kHistogram &&
        kMetricLabelKeys[i][0] == '\0') {
      values_[i][""] = 0;
    }
  }
}

void MetricsRegistry::set(Metric metric, std::int64_t value,
                          const std::string& label) {
  std::lock_guard lock(mutex_);
  values_[static_cast<std::size_t>(metric)][label] = value;
}

void MetricsRegistry::add(
    std::initializer_list<std::pair<Metric, std::int64_t>> deltas) {
  std::lock_guard lock(mutex_);
  for (const auto& [metric, delta] : deltas) {
    values_[static_cast<std::size_t>(metric)][""] += delta;
  }
}

void MetricsRegistry::set_max(Metric metric, std::int64_t value) {
  std::lock_guard lock(mutex_);
  std::int64_t& sample = values_[static_cast<std::size_t>(metric)][""];
  sample = std::max(sample, value);
}

void MetricsRegistry::replace(Metric metric,
                              std::map<std::string, std::int64_t> samples) {
  std::lock_guard lock(mutex_);
  values_[static_cast<std::size_t>(metric)] = std::move(samples);
}

void MetricsRegistry::observe(Metric metric, std::uint64_t value,
                              const std::string& label) {
  const auto& bounds = histogram_buckets();
  std::lock_guard lock(mutex_);
  Histogram& h = histograms_[static_cast<std::size_t>(metric)][label];
  if (h.buckets.empty()) {
    h.buckets.assign(bounds.size(), 0);
  }
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (value <= bounds[i]) {
      ++h.buckets[i];
    }
  }
  ++h.count;
  h.sum += value;
}

std::string MetricsRegistry::render() const {
  const auto& bounds = histogram_buckets();
  std::string out;
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const char* name = kMetricNames[i];
    const char* label_key = kMetricLabelKeys[i];
    const MetricKind kind = kind_of(i);
    out += "# HELP ";
    out += name;
    out += ' ';
    out += kMetricHelp[i];
    out += "\n# TYPE ";
    out += name;
    out += kind == MetricKind::kCounter
               ? " counter\n"
               : (kind == MetricKind::kGauge ? " gauge\n" : " histogram\n");
    if (kind == MetricKind::kHistogram) {
      for (const auto& [label, h] : histograms_[i]) {
        for (std::size_t b = 0; b < bounds.size(); ++b) {
          append_sample_name(out, name, "_bucket", label_key, label, "le",
                             std::to_string(bounds[b]));
          out += ' ' + std::to_string(h.buckets[b]) + '\n';
        }
        append_sample_name(out, name, "_bucket", label_key, label, "le",
                           "+Inf");
        out += ' ' + std::to_string(h.count) + '\n';
        append_sample_name(out, name, "_sum", label_key, label);
        out += ' ' + std::to_string(h.sum) + '\n';
        append_sample_name(out, name, "_count", label_key, label);
        out += ' ' + std::to_string(h.count) + '\n';
      }
      continue;
    }
    for (const auto& [label, value] : values_[i]) {
      append_sample_name(out, name, "", label_key, label);
      out += ' ' + std::to_string(value) + '\n';
    }
  }
  out += "# EOF\n";
  return out;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const auto unlabelled = values_[i].find("");
    if (unlabelled != values_[i].end()) {
      snap.values[i] = unlabelled->second;
    }
    for (const auto& [label, h] : histograms_[i]) {
      snap.histograms[i][label] = {h.count, h.sum};
    }
  }
  return snap;
}

}  // namespace ao::obs
