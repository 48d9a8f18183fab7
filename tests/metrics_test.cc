#include "common/metrics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>

#include "common/json.h"

namespace sdci {
namespace {

TEST(MetricsRegistry, SameNameAndLabelsShareOneInstrument) {
  MetricsRegistry registry;
  auto a = registry.GetCounter("events_total", {{"mdt", "0"}});
  auto b = registry.GetCounter("events_total", {{"mdt", "0"}});
  auto other = registry.GetCounter("events_total", {{"mdt", "1"}});
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), other.get());
  a->Add(3);
  EXPECT_EQ(b->Get(), 3u);
  EXPECT_EQ(other->Get(), 0u);
  EXPECT_EQ(registry.InstrumentCount(), 2u);
}

TEST(MetricsRegistry, JsonSnapshotShape) {
  MetricsRegistry registry;
  registry.GetCounter("ingested_total", {{"mdt", "0"}})->Add(7);
  registry.GetGauge("queue_depth")->Set(4);
  registry.GetHistogram("latency")->Record(Micros(100));
  registry.RegisterCallback("external_depth", {},
                            [] { return std::optional<int64_t>(11); });

  const json::Value doc = registry.ToJson();
  const json::Value& counter = doc["counters"]["ingested_total"].AsArray().at(0);
  EXPECT_EQ(counter["labels"].GetString("mdt"), "0");
  EXPECT_EQ(counter.GetInt("value"), 7);
  const json::Value& gauge = doc["gauges"]["queue_depth"].AsArray().at(0);
  EXPECT_EQ(gauge.GetInt("value"), 4);
  EXPECT_EQ(gauge.GetInt("peak"), 4);
  const json::Value& callback = doc["gauges"]["external_depth"].AsArray().at(0);
  EXPECT_EQ(callback.GetInt("value"), 11);
  const json::Value& hist = doc["histograms"]["latency"].AsArray().at(0);
  EXPECT_EQ(hist.GetInt("count"), 1);
  EXPECT_EQ(hist.GetInt("sum_ns"), Micros(100).count());
  EXPECT_GE(hist.GetInt("max_ns"), Micros(100).count());
}

TEST(MetricsRegistry, CallbackReturningNulloptIsSkipped) {
  MetricsRegistry registry;
  auto owner = std::make_shared<bool>(true);
  const std::weak_ptr<bool> weak = owner;
  registry.RegisterCallback("owned_depth", {},
                            [weak]() -> std::optional<int64_t> {
                              if (weak.expired()) return std::nullopt;
                              return 5;
                            });
  EXPECT_EQ(registry.ToJson()["gauges"]["owned_depth"].AsArray().size(), 1u);
  owner.reset();  // owner dies; the series must vanish, not crash
  const json::Value doc = registry.ToJson();
  EXPECT_FALSE(doc["gauges"].Has("owned_depth"));
  EXPECT_EQ(registry.ToPrometheus().find("owned_depth"), std::string::npos);
  // Other instruments are unaffected by the dead series.
  registry.GetCounter("alive_total")->Add(1);
  EXPECT_NE(registry.ToPrometheus().find("# TYPE alive_total counter"),
            std::string::npos);
}

TEST(MetricsRegistry, ReRegisteringCallbackReplaces) {
  MetricsRegistry registry;
  registry.RegisterCallback("depth", {}, [] { return std::optional<int64_t>(1); });
  registry.RegisterCallback("depth", {}, [] { return std::optional<int64_t>(2); });
  EXPECT_EQ(registry.InstrumentCount(), 1u);
  EXPECT_EQ(registry.ToJson()["gauges"]["depth"].AsArray().at(0).GetInt("value"), 2);
}

TEST(MetricsRegistry, CallbacksRunOutsideTheRegistryLock) {
  // A callback owner may take its own locks, and those locks may be held
  // by threads that call into this registry; reading a callback while the
  // registry lock is held would order the two locks both ways. The inner
  // call runs on another thread so a held lock shows up as a timeout
  // instead of a self-deadlock.
  MetricsRegistry registry;
  registry.GetCounter("events_total")->Add(1);
  std::future<size_t> inner;
  bool reentered = false;
  registry.RegisterCallback("reentrant", {}, [&]() -> std::optional<int64_t> {
    inner = std::async(std::launch::async, [&] { return registry.InstrumentCount(); });
    reentered = inner.wait_for(std::chrono::seconds(1)) == std::future_status::ready;
    return 1;
  });
  EXPECT_EQ(registry.ToJson()["gauges"]["reentrant"].AsArray().size(), 1u);
  EXPECT_TRUE(reentered) << "ToJson holds the registry lock across a callback";
  EXPECT_EQ(inner.get(), 2u);
  EXPECT_NE(registry.ToPrometheus().find("reentrant 1"), std::string::npos);
  EXPECT_TRUE(reentered) << "ToPrometheus holds the registry lock across a callback";
  EXPECT_EQ(registry.SampleAll(VirtualTime(1)), 2u);
  EXPECT_TRUE(reentered) << "SampleAll holds the registry lock across a callback";
}

TEST(MetricsRegistry, PrometheusExposition) {
  MetricsRegistry registry;
  registry.GetCounter("sdci_events_total", {{"mdt", "0"}})->Add(42);
  registry.GetGauge("sdci_depth")->Set(3);
  auto hist = registry.GetHistogram("sdci_latency");
  hist->Record(Micros(5));
  hist->Record(Micros(500));

  const std::string text = registry.ToPrometheus();
  EXPECT_NE(text.find("# TYPE sdci_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("sdci_events_total{mdt=\"0\"} 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sdci_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("sdci_depth 3"), std::string::npos);
  EXPECT_NE(text.find("sdci_depth_peak 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sdci_latency histogram"), std::string::npos);
  EXPECT_NE(text.find("sdci_latency_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("sdci_latency_count 2"), std::string::npos);
  EXPECT_NE(text.find("sdci_latency_sum"), std::string::npos);
  // One # TYPE line per name, even with several series.
  registry.GetCounter("sdci_events_total", {{"mdt", "1"}})->Add(1);
  const std::string two_series = registry.ToPrometheus();
  size_t type_lines = 0;
  for (size_t at = two_series.find("# TYPE sdci_events_total");
       at != std::string::npos;
       at = two_series.find("# TYPE sdci_events_total", at + 1)) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
}

TEST(MetricsRegistry, PrometheusEscapesLabelValues) {
  MetricsRegistry registry;
  registry.GetCounter("weird_total", {{"path", "a\"b\\c\nd"}})->Add(1);
  const std::string text = registry.ToPrometheus();
  EXPECT_NE(text.find("weird_total{path=\"a\\\"b\\\\c\\nd\"} 1"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusEscapingConformance) {
  // Hostile label values across every instrument type: a scrape must
  // never emit a raw newline, an unescaped quote, or a trailing
  // backslash that eats the closing quote.
  MetricsRegistry registry;
  registry.GetCounter("c_total", {{"p", "end\\"}})->Add(1);
  registry.GetGauge("g", {{"p", "\n"}})->Set(2);
  registry.RegisterCallback("cb", {{"p", "q\"\\\n"}},
                            [] { return std::optional<int64_t>(3); });
  registry.GetHistogram("h", {{"p", "a\"b"}})->Record(Micros(1));

  const std::string text = registry.ToPrometheus();
  EXPECT_NE(text.find("c_total{p=\"end\\\\\"} 1"), std::string::npos);
  EXPECT_NE(text.find("g{p=\"\\n\"} 2"), std::string::npos);
  EXPECT_NE(text.find("cb{p=\"q\\\"\\\\\\n\"} 3"), std::string::npos);
  // The le-extended histogram label set escapes the original labels too.
  EXPECT_NE(text.find("h_bucket{p=\"a\\\"b\",le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("h_sum{p=\"a\\\"b\"}"), std::string::npos);

  // Line-level conformance: every non-comment line is `name[{labels}] value`
  // — label values with raw newlines would shear a series across lines and
  // fail this parse.
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << "unparseable line: " << line;
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(value.empty()) << "no value on line: " << line;
    EXPECT_NE(value.find_first_of("0123456789"), std::string::npos)
        << "non-numeric value on line: " << line;
    // A label section, if present, must be closed before the value.
    const size_t open = line.find('{');
    if (open != std::string::npos) {
      const size_t close = line.rfind('}');
      ASSERT_NE(close, std::string::npos) << "unclosed labels: " << line;
      EXPECT_LT(close, space) << "value inside labels: " << line;
    }
  }
}

TEST(MetricsRegistry, HistogramBucketsAreCumulative) {
  MetricsRegistry registry;
  auto hist = registry.GetHistogram("lat");
  hist->Record(Micros(1));
  hist->Record(Micros(1));
  hist->Record(Micros(100));
  const std::string text = registry.ToPrometheus();
  // 1us samples land in the [1us, 2us) bucket (upper bound 2e-06 s); the
  // sub-microsecond bucket renders empty. Later buckets are cumulative,
  // ending at +Inf == total count.
  EXPECT_NE(text.find("lat_bucket{le=\"1e-06\"} 0"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"2e-06\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 3"), std::string::npos);
}

}  // namespace
}  // namespace sdci
