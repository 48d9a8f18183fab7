#include "common/metrics.h"

#include <algorithm>
#include <cassert>

#include "common/json.h"
#include "common/strings.h"
#include "common/timeseries.h"

namespace sdci {
namespace {

// Prometheus label-value escaping: backslash, double quote, newline.
std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string RenderLabels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + EscapeLabelValue(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

// Same, but with an extra label appended (for histogram `le`).
std::string RenderLabelsWith(const MetricLabels& labels, const std::string& key,
                             const std::string& value) {
  MetricLabels extended = labels;
  extended.emplace_back(key, value);
  return RenderLabels(extended);
}

json::Value LabelsToJson(const MetricLabels& labels) {
  json::Object out;
  for (const auto& [k, v] : labels) out[k] = v;
  return out;
}

std::string FormatSeconds(double s) { return strings::Format("{}", s); }

}  // namespace

MetricsRegistry::MetricsRegistry()
    : series_(std::make_shared<TimeSeriesStore>()) {}

std::shared_ptr<Counter> MetricsRegistry::GetCounter(const std::string& name,
                                                     const MetricLabels& labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  assert(gauges_.find({name, labels}) == gauges_.end() &&
         histograms_.find({name, labels}) == histograms_.end() &&
         "metric name already registered with a different kind");
  auto& slot = counters_[{name, labels}];
  if (slot == nullptr) slot = std::make_shared<Counter>();
  return slot;
}

std::shared_ptr<Gauge> MetricsRegistry::GetGauge(const std::string& name,
                                                 const MetricLabels& labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  assert(counters_.find({name, labels}) == counters_.end() &&
         histograms_.find({name, labels}) == histograms_.end() &&
         "metric name already registered with a different kind");
  auto& slot = gauges_[{name, labels}];
  if (slot == nullptr) slot = std::make_shared<Gauge>();
  return slot;
}

std::shared_ptr<LatencyHistogram> MetricsRegistry::GetHistogram(
    const std::string& name, const MetricLabels& labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  assert(counters_.find({name, labels}) == counters_.end() &&
         gauges_.find({name, labels}) == gauges_.end() &&
         "metric name already registered with a different kind");
  auto& slot = histograms_[{name, labels}];
  if (slot == nullptr) slot = std::make_shared<LatencyHistogram>();
  return slot;
}

void MetricsRegistry::RegisterCallback(const std::string& name,
                                       const MetricLabels& labels,
                                       std::function<std::optional<int64_t>()> read) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& series = callbacks_[name];
  for (auto& entry : series) {
    if (entry.labels == labels) {
      entry.read = std::move(read);
      return;
    }
  }
  series.push_back({labels, std::move(read)});
}

std::vector<MetricsRegistry::CallbackValue> MetricsRegistry::ReadCallbacks() const {
  std::vector<std::pair<std::string, Callback>> entries;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, series] : callbacks_) {
      for (const auto& entry : series) entries.emplace_back(name, entry);
    }
  }
  std::vector<CallbackValue> values;
  values.reserve(entries.size());
  for (auto& [name, entry] : entries) {
    const auto value = entry.read ? entry.read() : std::nullopt;
    if (!value.has_value()) continue;  // owner gone
    values.push_back({std::move(name), std::move(entry.labels), *value});
  }
  return values;
}

json::Value MetricsRegistry::ToJson() const {
  const std::vector<CallbackValue> callback_values = ReadCallbacks();
  const std::lock_guard<std::mutex> lock(mutex_);
  json::Object counters;
  for (const auto& [key, counter] : counters_) {
    json::Object row;
    row["labels"] = LabelsToJson(key.second);
    row["value"] = counter->Get();
    if (!counters[key.first].is_array()) counters[key.first] = json::Array{};
    counters[key.first].AsArray().push_back(std::move(row));
  }
  json::Object gauges;
  const auto add_gauge_row = [&gauges](const std::string& name, json::Value row) {
    if (!gauges[name].is_array()) gauges[name] = json::Array{};
    gauges[name].AsArray().push_back(std::move(row));
  };
  for (const auto& [key, gauge] : gauges_) {
    json::Object row;
    row["labels"] = LabelsToJson(key.second);
    row["value"] = gauge->Get();
    row["peak"] = gauge->Peak();
    add_gauge_row(key.first, std::move(row));
  }
  for (const CallbackValue& cb : callback_values) {
    json::Object row;
    row["labels"] = LabelsToJson(cb.labels);
    row["value"] = cb.value;
    add_gauge_row(cb.name, std::move(row));
  }
  json::Object histograms;
  for (const auto& [key, hist] : histograms_) {
    json::Object row;
    row["labels"] = LabelsToJson(key.second);
    row["count"] = hist->Count();
    row["sum_ns"] = hist->Sum().count();
    row["mean_ns"] = hist->Mean().count();
    row["p50_ns"] = hist->Quantile(0.5).count();
    row["p99_ns"] = hist->Quantile(0.99).count();
    row["max_ns"] = hist->Max().count();
    if (!histograms[key.first].is_array()) histograms[key.first] = json::Array{};
    histograms[key.first].AsArray().push_back(std::move(row));
  }
  json::Object out;
  out["counters"] = std::move(counters);
  out["gauges"] = std::move(gauges);
  out["histograms"] = std::move(histograms);
  return out;
}

std::string MetricsRegistry::ToPrometheus() const {
  const std::vector<CallbackValue> callback_values = ReadCallbacks();
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  std::string last_name;
  const auto type_line = [&](const std::string& name, const char* kind) {
    if (name != last_name) {
      out += "# TYPE " + name + " " + kind + "\n";
      last_name = name;
    }
  };
  for (const auto& [key, counter] : counters_) {
    type_line(key.first, "counter");
    out += key.first + RenderLabels(key.second) + " " +
           std::to_string(counter->Get()) + "\n";
  }
  // Regular gauges and callback gauges share the exposition kind; merge
  // the series so each name gets exactly one # TYPE line.
  std::map<std::string, std::vector<std::pair<MetricLabels, int64_t>>> gauge_rows;
  for (const auto& [key, gauge] : gauges_) {
    gauge_rows[key.first].emplace_back(key.second, gauge->Get());
    gauge_rows[key.first + "_peak"].emplace_back(key.second, gauge->Peak());
  }
  for (const CallbackValue& cb : callback_values) {
    gauge_rows[cb.name].emplace_back(cb.labels, cb.value);
  }
  last_name.clear();
  for (const auto& [name, rows] : gauge_rows) {
    for (const auto& [labels, value] : rows) {
      type_line(name, "gauge");
      out += name + RenderLabels(labels) + " " + std::to_string(value) + "\n";
    }
  }
  last_name.clear();
  for (const auto& [key, hist] : histograms_) {
    type_line(key.first, "histogram");
    const auto buckets = hist->Buckets();
    size_t last_used = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i].count > 0) last_used = i;
    }
    uint64_t cumulative = 0;
    for (size_t i = 0; i <= last_used; ++i) {
      cumulative += buckets[i].count;
      out += key.first + "_bucket" +
             RenderLabelsWith(key.second, "le",
                              FormatSeconds(static_cast<double>(buckets[i].upper_ns) / 1e9)) +
             " " + std::to_string(cumulative) + "\n";
    }
    out += key.first + "_bucket" + RenderLabelsWith(key.second, "le", "+Inf") +
           " " + std::to_string(hist->Count()) + "\n";
    out += key.first + "_sum" + RenderLabels(key.second) + " " +
           FormatSeconds(ToSecondsF(hist->Sum())) + "\n";
    out += key.first + "_count" + RenderLabels(key.second) + " " +
           std::to_string(hist->Count()) + "\n";
  }
  return out;
}

size_t MetricsRegistry::SampleAll(VirtualTime now) {
  const std::vector<CallbackValue> callback_values = ReadCallbacks();
  const std::lock_guard<std::mutex> lock(mutex_);
  size_t sampled = 0;
  for (const auto& [key, counter] : counters_) {
    series_->Series(key.first, key.second)
        ->Record(now, static_cast<double>(counter->Get()));
    ++sampled;
  }
  for (const auto& [key, gauge] : gauges_) {
    series_->Series(key.first, key.second)
        ->Record(now, static_cast<double>(gauge->Get()));
    ++sampled;
  }
  for (const CallbackValue& cb : callback_values) {
    series_->Series(cb.name, cb.labels)->Record(now, static_cast<double>(cb.value));
    ++sampled;
  }
  for (const auto& [key, hist] : histograms_) {
    series_->Series(key.first + "_p99_ns", key.second)
        ->Record(now, static_cast<double>(hist->Quantile(0.99).count()));
    ++sampled;
  }
  return sampled;
}

size_t MetricsRegistry::InstrumentCount() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  size_t n = counters_.size() + gauges_.size() + histograms_.size();
  for (const auto& [name, series] : callbacks_) n += series.size();
  return n;
}

}  // namespace sdci
