// Unified metrics registry: named, label-tagged instruments with a single
// snapshot API.
//
// Components register the counters/gauges/histograms they already expose
// through their Stats() accessors into a shared MetricsRegistry, so one
// scrape answers for the whole fleet. Instruments are created on first
// request and shared afterwards: two callers asking for the same
// (name, labels) pair get the same object, which is how a supervisor's
// restarted children keep accumulating into one fleet-cumulative series.
//
// Exports: ToJson() for health documents and tests, ToPrometheus() for the
// text exposition format (counters, gauges with `_peak` companions,
// histograms with cumulative `le` buckets in seconds).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/stats.h"

namespace sdci {

class TimeSeriesStore;

namespace json {
class Value;
}  // namespace json

// Ordered label set attached to an instrument, e.g. {{"mdt", "0"}}.
// Order matters for identity: register with a consistent order.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

class MetricsRegistry {
 public:
  MetricsRegistry();

  // First request creates the instrument; later requests with the same
  // (name, labels) return the same object. A name must stay one kind:
  // asking for a counter named like an existing gauge is a programming
  // error (asserted in debug builds, returns a detached instrument in
  // release builds so callers never get a null).
  std::shared_ptr<Counter> GetCounter(const std::string& name,
                                      const MetricLabels& labels = {});
  std::shared_ptr<Gauge> GetGauge(const std::string& name,
                                  const MetricLabels& labels = {});
  std::shared_ptr<LatencyHistogram> GetHistogram(const std::string& name,
                                                 const MetricLabels& labels = {});

  // Scrape-time gauge: `read` runs on every snapshot. For values owned
  // elsewhere (socket queue depths, SQS backlog) — capture weak handles
  // and return nullopt once the owner is gone; the series is then skipped
  // rather than crashing the scrape. Re-registering the same (name,
  // labels) replaces the previous callback.
  void RegisterCallback(const std::string& name, const MetricLabels& labels,
                        std::function<std::optional<int64_t>()> read);

  // {"counters": {name: [{"labels": {...}, "value": N}, ...]},
  //  "gauges":   {name: [{..., "value": N, "peak": N}, ...]},
  //  "histograms": {name: [{..., "count", "sum_ns", "mean_ns", "p50_ns",
  //                         "p99_ns", "max_ns"}, ...]}}
  // Callback gauges appear under "gauges" alongside the regular ones.
  [[nodiscard]] json::Value ToJson() const;

  // Prometheus text exposition format. Durations are exported in seconds
  // per convention; histogram buckets are cumulative with a trailing +Inf.
  [[nodiscard]] std::string ToPrometheus() const;

  // Number of registered series (callbacks included).
  [[nodiscard]] size_t InstrumentCount() const;

  // Samples every instrument into the time-series store at virtual time
  // `now`: counters and gauges record their value, callback gauges record
  // what their read returns (skipped while the owner is gone), histograms
  // record their p99 under `<name>_p99_ns`. Any scrape loop that calls
  // this populates the sliding windows the SLO evaluator (common/slo.h)
  // fires on. Returns the number of series sampled.
  size_t SampleAll(VirtualTime now);

  // The ring store SampleAll populates. Shared so evaluators can outlive
  // a scrape loop holding the registry.
  [[nodiscard]] std::shared_ptr<TimeSeriesStore> series() const { return series_; }

 private:
  using Key = std::pair<std::string, MetricLabels>;
  struct Callback {
    MetricLabels labels;
    std::function<std::optional<int64_t>()> read;
  };
  struct CallbackValue {
    std::string name;
    MetricLabels labels;
    int64_t value;
  };

  // Reads every callback gauge whose owner is still alive. The entries are
  // copied under the lock and read after releasing it, so a callback may
  // take its owner's locks or call back into this registry without
  // ordering either behind `mutex_`.
  [[nodiscard]] std::vector<CallbackValue> ReadCallbacks() const;

  mutable std::mutex mutex_;
  std::shared_ptr<TimeSeriesStore> series_;
  std::map<Key, std::shared_ptr<Counter>> counters_;
  std::map<Key, std::shared_ptr<Gauge>> gauges_;
  std::map<Key, std::shared_ptr<LatencyHistogram>> histograms_;
  std::map<std::string, std::vector<Callback>> callbacks_;  // name -> series
};

}  // namespace sdci
