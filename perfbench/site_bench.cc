// Real-clock site benchmark program. run.py starts it once per round, each
// round in a fresh process, then once more to aggregate the rounds:
//
//   site_bench round --workload drain|stream|history --seed N
//       --timed-seconds T --trace 0|1 --out ROUND.json [--spans-out F]
//     Deploys one site, runs one round of the workload, checks everything
//     the site delivered and writes the round (metrics, raw latency
//     samples, check counts and, traced, the per-layer rows) to ROUND.json.
//
//   site_bench aggregate --workload W --seed N --seconds S --trace 0|1
//       [--commit C] [--source-digest D] ROUND.json...
//     Prints a report line (provenance and every metric the workload
//     defines, medians over rounds and pooled percentiles) and then the
//     result line {"attempted","correct","failed","metrics"}. Untraced, the
//     metrics are the gated end-to-end ones; traced (an untraced round and
//     a traced round, in that order) they are the per-layer rows.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "replay.h"
#include "stats.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::RoundResult;
using perfbench::Workload;
using sdci::json::Array;
using sdci::json::Object;
using sdci::json::Value;

struct Args {
  std::string command;
  Workload workload = Workload::kDrain;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  double timed_seconds = 3;
  bool trace = false;
  std::string out;
  std::string spans_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::vector<std::string> inputs;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "site_bench: %s\n"
               "usage: site_bench round --workload drain|stream|history --seed N "
               "--timed-seconds T --trace 0|1 --out FILE [--spans-out FILE]\n"
               "       site_bench aggregate --workload W --seed N --seconds S --trace 0|1 "
               "[--commit C] [--source-digest D] ROUND.json...\n",
               why.c_str());
  std::exit(64);
}

double ParsePositive(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (*end != '\0' || !(v > 0)) Usage("bad " + flag);
  return v;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc < 2) Usage("missing command");
  args.command = argv[1];
  if (args.command != "round" && args.command != "aggregate") Usage("unknown command");
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      args.inputs.push_back(flag);
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload_name = value;
      if (value == "drain") {
        args.workload = Workload::kDrain;
      } else if (value == "stream") {
        args.workload = Workload::kStream;
      } else if (value == "history") {
        args.workload = Workload::kHistory;
      } else {
        Usage("unknown workload " + value);
      }
    } else if (flag == "--seed") {
      char* end = nullptr;
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = ParsePositive(flag, value);
    } else if (flag == "--timed-seconds") {
      args.timed_seconds = ParsePositive(flag, value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload_name.empty()) Usage("--workload is required");
  if (args.command == "round" && args.out.empty()) Usage("--out is required");
  if (args.command == "aggregate" && args.inputs.empty()) Usage("no round files");
  return args;
}

// ------------------------------------------------------------ round files

Value Numbers(const std::vector<double>& values) {
  Array out;
  out.reserve(values.size());
  for (const double v : values) out.push_back(Value(v));
  return Value(std::move(out));
}

std::vector<double> NumbersFrom(const Value& value) {
  std::vector<double> out;
  if (!value.is_array()) return out;
  for (const Value& v : value.AsArray()) out.push_back(v.AsNumber());
  return out;
}

// The fields of a round the aggregate needs, with the check counts.
Value RoundJson(const RoundResult& r, const std::vector<perfbench::LayerMetric>& layers) {
  Object o;
  o["setup_s"] = Value(r.setup_s);
  o["peak_rss_mb"] = Value(r.peak_rss_mb);
  o["events_per_s"] = Value(r.events_per_s);
  o["cpu_ns_per_event"] = Value(r.cpu_ns_per_event);
  o["timed_events"] = Value(r.timed_events);
  o["deliver_ms"] = Numbers(r.deliver_ms);
  o["action_ms"] = Numbers(r.action_ms);
  o["rule_update_ms"] = Numbers(r.rule_update_ms);
  o["query_ms"] = Numbers(r.query_ms);
  o["gen_late_us"] = Numbers(r.gen_late_us);
  o["query_events"] = Value(r.query_events);
  o["query_wall_s"] = Value(r.query_wall_s);
  Object checks;
  checks["events_expected"] = Value(r.deliveries.expected);
  checks["events_lost"] = Value(r.deliveries.lost);
  checks["events_duplicated"] = Value(r.deliveries.duplicated);
  checks["events_reordered"] = Value(r.deliveries.reordered);
  checks["events_wrong"] = Value(r.deliveries.wrong);
  checks["seq_errors"] = Value(r.deliveries.seq_errors);
  checks["actions_expected"] = Value(r.actions.expected);
  checks["actions_missing"] = Value(r.actions.missing);
  checks["actions_unexpected"] = Value(r.actions.unexpected);
  checks["actions_duplicated"] = Value(r.actions.duplicated);
  checks["pages"] = Value(r.pages.pages);
  checks["pages_bad"] = Value(r.pages.bad);
  checks["rule_updates"] = Value(r.rule_updates);
  checks["rule_update_failures"] = Value(r.rule_update_failures);
  o["checks"] = Value(std::move(checks));
  o["attempted"] = Value(r.attempted());
  o["failed"] = Value(r.failed());
  Array rows;
  for (const auto& layer : layers) {
    Object row;
    row["name"] = Value(layer.name);
    row["unit"] = Value(layer.unit);
    row["value"] = Value(layer.value);
    rows.push_back(Value(std::move(row)));
  }
  o["layers"] = Value(std::move(rows));
  return Value(std::move(o));
}

int RunRoundCommand(const Args& args, int64_t process_start) {
  perfbench::LiveTrace trace;
  perfbench::LiveTrace* traced = args.trace ? &trace : nullptr;
  RoundResult round = perfbench::RunRound(args.workload, args.seed, args.timed_seconds,
                                          process_start, traced);
  round.peak_rss_mb = perfbench::PeakRssMb();
  std::vector<perfbench::LayerMetric> layers;
  if (traced != nullptr) {
    layers = perfbench::LayerMetrics(args.workload, args.seed, round, trace);
    if (!args.spans_out.empty() && !trace.spans.WriteJsonLines(args.spans_out)) {
      std::fprintf(stderr, "site_bench: could not write spans to %s\n", args.spans_out.c_str());
    }
  }
  std::ofstream out(args.out);
  out << RoundJson(round, layers).Dump() << "\n";
  out.close();
  perfbench::Require(static_cast<bool>(out), "could not write " + args.out);
  return 0;
}

// -------------------------------------------------------------- aggregate

// One metric of the report: value, unit, direction, and the sample support
// of a percentile.
struct Metric {
  std::string name;
  std::string unit;
  std::string better;
  double value = 0;
  std::optional<perfbench::Quantile> quantile;
};

Value MetricJson(const Metric& m) {
  Object o;
  o["value"] = Value(m.value);
  o["unit"] = Value(m.unit);
  if (!m.better.empty()) o["better"] = Value(m.better);
  if (m.quantile.has_value()) {
    o["samples"] = Value(static_cast<uint64_t>(m.quantile->samples));
    o["beyond"] = Value(static_cast<uint64_t>(m.quantile->beyond));
  }
  return Value(std::move(o));
}

std::vector<double> Each(const std::vector<Value>& rounds, const char* key) {
  std::vector<double> out;
  for (const Value& r : rounds) out.push_back(r.GetNumber(key));
  return out;
}

std::vector<double> Pool(const std::vector<Value>& rounds, const char* key) {
  std::vector<double> out;
  for (const Value& r : rounds) {
    const std::vector<double> samples = NumbersFrom(r[key]);
    out.insert(out.end(), samples.begin(), samples.end());
  }
  return out;
}

// p50 (any non-empty set) and p99 (only with ten samples beyond it).
// The q-quantile of a run's `key` samples: the median over rounds of each
// round's quantile when every round has the samples for it (so one
// disturbed round cannot move it), else the quantile of all rounds' samples
// pooled. Reported with the pooled sample count and the fewest samples
// beyond the quantile in any one round.
std::optional<perfbench::Quantile> RunQuantile(const std::vector<Value>& rounds,
                                               const char* key, double q, size_t min_beyond) {
  std::vector<double> per_round;
  size_t samples = 0;
  size_t fewest_beyond = SIZE_MAX;
  for (const Value& r : rounds) {
    const std::vector<double> values = NumbersFrom(r[key]);
    samples += values.size();
    const auto quantile = perfbench::TailQuantile(values, q, min_beyond);
    if (!quantile.has_value()) break;
    per_round.push_back(quantile->value);
    fewest_beyond = std::min(fewest_beyond, quantile->beyond);
  }
  if (!rounds.empty() && per_round.size() == rounds.size()) {
    return perfbench::Quantile{perfbench::Median(per_round), samples, fewest_beyond};
  }
  return perfbench::TailQuantile(Pool(rounds, key), q, min_beyond);
}

// p50 (any non-empty set) and p99 (only with ten samples beyond it).
void AddPercentiles(std::vector<Metric>& out, const std::vector<Value>& rounds, const char* key,
                    const std::string& prefix, bool with_p99 = true) {
  if (const auto p50 = RunQuantile(rounds, key, 0.5, 0)) {
    out.push_back({prefix + "_p50_ms", "ms", "lower", p50->value, p50});
  }
  if (!with_p99) return;
  if (const auto p99 = RunQuantile(rounds, key, 0.99, 10)) {
    out.push_back({prefix + "_p99_ms", "ms", "lower", p99->value, p99});
  }
}

uint64_t Sum(const std::vector<Value>& rounds, const char* key) {
  uint64_t total = 0;
  for (const Value& r : rounds) total += static_cast<uint64_t>(r.GetInt(key));
  return total;
}

// Every end-to-end metric the workload defines, from its untraced rounds.
std::vector<Metric> EndToEnd(Workload workload, const std::vector<Value>& rounds) {
  using perfbench::Median;
  std::vector<Metric> out;
  out.push_back({"setup_s", "s", "lower", Median(Each(rounds, "setup_s")), std::nullopt});
  out.push_back(
      {"events_per_s", "1/s", "higher", Median(Each(rounds, "events_per_s")), std::nullopt});
  out.push_back({"cpu_ns_per_event", "ns", "lower", Median(Each(rounds, "cpu_ns_per_event")),
                 std::nullopt});
  out.push_back({"peak_rss_mb", "MB", "lower", Median(Each(rounds, "peak_rss_mb")), std::nullopt});
  AddPercentiles(out, rounds, "deliver_ms", "deliver");
  if (workload == Workload::kStream) {
    AddPercentiles(out, rounds, "action_ms", "action");
    AddPercentiles(out, rounds, "rule_update_ms", "rule_update", false);
  }
  if (workload == Workload::kHistory) {
    AddPercentiles(out, rounds, "query_ms", "query");
    double events = 0;
    double wall = 0;
    for (const Value& r : rounds) {
      events += r.GetNumber("query_events");
      wall += r.GetNumber("query_wall_s");
    }
    out.push_back(
        {"query_events_per_s", "1/s", "higher", wall > 0 ? events / wall : 0, std::nullopt});
  }
  const uint64_t attempted = Sum(rounds, "attempted");
  out.push_back({"failed_fraction", "fraction", "lower",
                 attempted == 0 ? 1.0
                                : static_cast<double>(Sum(rounds, "failed")) /
                                      static_cast<double>(attempted),
                 std::nullopt});
  if (const auto late = RunQuantile(rounds, "gen_late_us", 0.99, 10)) {
    out.push_back({"gen_late_p99_us", "us", "lower", late->value, late});
  }
  return out;
}

// The metrics the result line carries: BENCHMARK.json's end_to_end list.
const std::vector<std::string> kGatedEndToEnd = {"setup_s",        "events_per_s",
                                                 "cpu_ns_per_event", "peak_rss_mb",
                                                 "deliver_p50_ms", "deliver_p99_ms"};

Value Provenance(const Args& args, size_t rounds) {
  Object p;
  p["nproc"] = Value(static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  p["compiler"] = Value(PERFBENCH_COMPILER);
  p["build_type"] = Value(PERFBENCH_BUILD_TYPE);
  p["commit"] = Value(args.commit);
  p["source_digest"] = Value(args.source_digest);
  p["seed"] = Value(args.seed);
  p["seconds"] = Value(args.seconds);
  p["workload"] = Value(args.workload_name);
  p["trace"] = Value(args.trace);
  p["rounds"] = Value(static_cast<uint64_t>(rounds));
  p["params"] = perfbench::ParamsJson(args.workload);
  return Value(std::move(p));
}

Value SummedChecks(const std::vector<Value>& rounds) {
  Object sum;
  for (const Value& r : rounds) {
    for (const auto& [name, count] : r["checks"].AsObject()) {
      const double prior = sum.count(name) > 0 ? sum[name].AsNumber() : 0;
      sum[name] = Value(prior + count.AsNumber());
    }
  }
  return Value(std::move(sum));
}

Value PerRound(const std::vector<Value>& rounds) {
  Object o;
  for (const char* key : {"setup_s", "events_per_s", "cpu_ns_per_event", "peak_rss_mb"}) {
    o[key] = Numbers(Each(rounds, key));
  }
  return Value(std::move(o));
}

int RunAggregateCommand(const Args& args) {
  std::vector<Value> rounds;
  for (const std::string& path : args.inputs) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    auto parsed = sdci::json::Parse(text.str());
    perfbench::Require(in.good() || in.eof(), "could not read " + path);
    perfbench::Require(parsed.ok(), "bad round file " + path + ": " + parsed.status().ToString());
    rounds.push_back(std::move(*parsed));
  }

  std::vector<Metric> report;
  std::vector<std::string> result_names;
  if (!args.trace) {
    report = EndToEnd(args.workload, rounds);
    result_names = kGatedEndToEnd;
  } else {
    // An untraced round, then the traced round with the layer rows.
    perfbench::Require(rounds.size() == 2, "a traced aggregate takes two rounds");
    for (const Value& row : rounds[1]["layers"].AsArray()) {
      report.push_back({row.GetString("name"), row.GetString("unit"), "",
                        row.GetNumber("value"), std::nullopt});
    }
    const double base = rounds[0].GetNumber("cpu_ns_per_event");
    const double traced = rounds[1].GetNumber("cpu_ns_per_event");
    report.push_back(
        {"trace.overhead_pct", "%", "", base > 0 ? 100.0 * (traced - base) / base : 0,
         std::nullopt});
    for (const Metric& m : report) result_names.push_back(m.name);
  }

  Object metrics_doc;
  for (const Metric& m : report) metrics_doc[m.name] = MetricJson(m);
  Object report_doc;
  report_doc["provenance"] = Provenance(args, rounds.size());
  report_doc["metrics"] = Value(std::move(metrics_doc));
  report_doc["per_round"] = PerRound(rounds);
  report_doc["checks"] = SummedChecks(rounds);
  Object wrapper;
  wrapper["perfbench_report"] = Value(std::move(report_doc));
  std::printf("%s\n", Value(std::move(wrapper)).Dump().c_str());

  Object metrics;
  for (const std::string& name : result_names) {
    const Metric* found = nullptr;
    for (const Metric& m : report) {
      if (m.name == name) found = &m;
    }
    perfbench::Require(found != nullptr, "no value for metric " + name);
    Object o;
    o["value"] = Value(found->value);
    o["unit"] = Value(found->unit);
    metrics[name] = Value(std::move(o));
  }
  const uint64_t failed = Sum(rounds, "failed");
  Object result;
  result["correct"] = Value(failed == 0);
  result["attempted"] = Value(Sum(rounds, "attempted"));
  result["failed"] = Value(failed);
  result["metrics"] = Value(std::move(metrics));
  std::printf("%s\n", Value(std::move(result)).Dump().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t process_start = perfbench::NowNs();
  const Args args = ParseArgs(argc, argv);
  return args.command == "round" ? RunRoundCommand(args, process_start)
                                 : RunAggregateCommand(args);
}
