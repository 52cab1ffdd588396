#include "obs/metrics.h"

#include <algorithm>
#include <thread>

namespace inspector::obs {

namespace {

/// Split a registry key into the bare series name and the label pair
/// embedded in it ("latency{kind=\"races\"}" -> "latency",
/// "kind=\"races\""). Empty labels for plain keys.
struct SplitName {
  std::string_view name;
  std::string_view labels;
};

SplitName split(std::string_view key) {
  const std::size_t brace = key.find('{');
  if (brace == std::string_view::npos || key.back() != '}') {
    return {key, {}};
  }
  return {key.substr(0, brace),
          key.substr(brace + 1, key.size() - brace - 2)};
}

void append_series_name(std::string& out, std::string_view key,
                        std::string_view suffix,
                        std::string_view extra_label) {
  const SplitName parts = split(key);
  out += parts.name;
  out += suffix;
  if (!parts.labels.empty() || !extra_label.empty()) {
    out.push_back('{');
    out += parts.labels;
    if (!parts.labels.empty() && !extra_label.empty()) out.push_back(',');
    out += extra_label;
    out.push_back('}');
  }
}

void append_json_key(std::string& out, std::string_view key) {
  out.push_back('"');
  for (const char c : key) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
}

}  // namespace

std::atomic<std::uint64_t>& Counter::stripe() noexcept {
  // A thread hashes to a fixed stripe: no per-add randomness, and the
  // common few-threads case spreads across lines well enough.
  const std::size_t h =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return stripes_[h % kStripes].v;
}

std::uint64_t Histogram::Snapshot::percentile(double q) const noexcept {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     q * static_cast<double>(count) + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts[b];
    if (seen >= rank) return bucket_bound(b);
  }
  return bucket_bound(kBuckets - 1);
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // leaked: outlives exit paths
  return *instance;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = SeriesSnapshot::Kind::kCounter;
    entry.counter = std::make_unique<Counter>();
    it = entries_.emplace(std::string(name), std::move(entry)).first;
  }
  return *it->second.counter;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = SeriesSnapshot::Kind::kGauge;
    entry.gauge = std::make_unique<Gauge>();
    it = entries_.emplace(std::string(name), std::move(entry)).first;
  }
  return *it->second.gauge;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = SeriesSnapshot::Kind::kHistogram;
    entry.histogram = std::make_unique<Histogram>();
    it = entries_.emplace(std::string(name), std::move(entry)).first;
  }
  return *it->second.histogram;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard lock(mu_);
  out.series.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    SeriesSnapshot s;
    s.name = name;
    s.kind = entry.kind;
    switch (entry.kind) {
      case SeriesSnapshot::Kind::kCounter:
        s.counter_value = entry.counter->value();
        break;
      case SeriesSnapshot::Kind::kGauge:
        s.gauge_value = entry.gauge->value();
        break;
      case SeriesSnapshot::Kind::kHistogram:
        s.histogram = entry.histogram->snapshot();
        break;
    }
    out.series.push_back(std::move(s));
  }
  return out;  // std::map iteration is already name-sorted
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  // Every piece is appended to `out` on its own: a literal prefixed to
  // a std::to_string temporary trips gcc 12's -Wrestrict in optimized
  // builds.
  std::string out;
  const auto value_line = [&out](auto value) {
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  };
  for (const SeriesSnapshot& s : snapshot.series) {
    switch (s.kind) {
      case SeriesSnapshot::Kind::kCounter:
        append_series_name(out, s.name, "", "");
        value_line(s.counter_value);
        break;
      case SeriesSnapshot::Kind::kGauge:
        append_series_name(out, s.name, "", "");
        value_line(s.gauge_value);
        break;
      case SeriesSnapshot::Kind::kHistogram: {
        std::uint64_t cumulative = 0;
        std::string le;
        for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
          cumulative += s.histogram.counts[b];
          le = "le=\"";
          le += b + 1 == Histogram::kBuckets
                    ? std::string("+Inf")
                    : std::to_string(Histogram::Snapshot::bucket_bound(b));
          le += '"';
          append_series_name(out, s.name, "_bucket", le);
          value_line(cumulative);
        }
        append_series_name(out, s.name, "_sum", "");
        value_line(s.histogram.sum);
        append_series_name(out, s.name, "_count", "");
        value_line(s.histogram.count);
        break;
      }
    }
  }
  return out;
}

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string counters, gauges, histograms;
  const auto field = [](std::string& out, const char* key, auto value) {
    out += key;
    out += std::to_string(value);
  };
  for (const SeriesSnapshot& s : snapshot.series) {
    switch (s.kind) {
      case SeriesSnapshot::Kind::kCounter:
        if (!counters.empty()) counters.push_back(',');
        append_json_key(counters, s.name);
        field(counters, ":", s.counter_value);
        break;
      case SeriesSnapshot::Kind::kGauge:
        if (!gauges.empty()) gauges.push_back(',');
        append_json_key(gauges, s.name);
        field(gauges, ":", s.gauge_value);
        break;
      case SeriesSnapshot::Kind::kHistogram:
        if (!histograms.empty()) histograms.push_back(',');
        append_json_key(histograms, s.name);
        field(histograms, ":{\"count\":", s.histogram.count);
        field(histograms, ",\"sum\":", s.histogram.sum);
        field(histograms, ",\"p50\":", s.histogram.percentile(0.5));
        field(histograms, ",\"p90\":", s.histogram.percentile(0.9));
        field(histograms, ",\"p99\":", s.histogram.percentile(0.99));
        histograms.push_back('}');
        break;
    }
  }
  std::string out = "{\"counters\":{";
  out += counters;
  out += "},\"gauges\":{";
  out += gauges;
  out += "},\"histograms\":{";
  out += histograms;
  out += "}}";
  return out;
}

}  // namespace inspector::obs
