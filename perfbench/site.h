// The deployed site under test and the benchmark's own threads around it.
//
// Site deploys one site through public APIs only: a 4-MDT FileSystem with
// DNE round-robin directory placement, one Collector per MDT, a 2-shard
// AggregatorFleet, the benchmark's verifying FleetSubscriber and, when
// asked, a CloudService with one Agent on its own FleetSubscriber. The
// TestbedProfile is zeroed and time runs undilated, so wall and CPU time
// measure only the program's code; every other knob keeps its default
// (50 ms collector poll, 5 ms cloud worker poll, 5 ms subscriber slices).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "lustre/filesystem.h"
#include "lustre/profile.h"
#include "monitor/collector.h"
#include "monitor/federation.h"
#include "monitor/fleet.h"
#include "msgq/context.h"
#include "oracle.h"
#include "ripple/actions.h"
#include "ripple/agent.h"
#include "ripple/cloud.h"

namespace perfbench {

inline constexpr size_t kMdts = 4;
inline constexpr size_t kShards = 2;

// Prints the reason and ends the process with status 2 and no result line:
// the benchmark itself could not run, which is not a measurement.
[[noreturn]] void Fatal(const std::string& what);
inline void Require(bool condition, const std::string& what) {
  if (!condition) Fatal(what);
}

// Every modeled latency zero, four MDTs.
sdci::lustre::TestbedProfile ZeroProfile();

// Records each executed action and when it completed.
class ActionRecorder : public sdci::ripple::ActionExecutor {
 public:
  sdci::Result<sdci::ripple::ActionOutcome> Execute(
      const sdci::ripple::ActionContext& context,
      const sdci::ripple::ActionRequest& request) override;
  [[nodiscard]] size_t Count() const;
  [[nodiscard]] std::vector<ExecutedAction> Take();

 private:
  mutable std::mutex mutex_;
  std::vector<ExecutedAction> done_;
};

class Site {
 public:
  Site(bool with_ripple, std::shared_ptr<sdci::MetricsRegistry> registry);
  ~Site();
  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  void StartCollectors();
  // Stops agent, collectors, fleet and cloud (idempotent). The verifying
  // consumer must already be stopped.
  void Stop();

  sdci::TimeAuthority authority{1.0};
  sdci::lustre::TestbedProfile profile = ZeroProfile();
  std::shared_ptr<sdci::MetricsRegistry> registry;
  sdci::lustre::FileSystem fs;
  sdci::msgq::Context context;
  std::unique_ptr<sdci::monitor::AggregatorFleet> fleet;
  std::vector<std::unique_ptr<sdci::monitor::Collector>> collectors;
  std::unique_ptr<sdci::monitor::FleetSubscriber> subscriber;  // verifying consumer's
  std::unique_ptr<sdci::ripple::CloudService> cloud;
  sdci::ripple::EndpointRegistry endpoints;
  std::unique_ptr<sdci::ripple::Agent> agent;
  ActionRecorder* actions = nullptr;  // owned by `agent`

 private:
  bool stopped_ = false;
};

// The verifying consumer: one thread draining the site's FleetSubscriber
// into a compact delivery log (zero-copy over v4 payloads). When capturing,
// it also keeps the received batches for the layer replay.
class Consumer {
 public:
  Consumer(sdci::monitor::FleetSubscriber& subscriber, size_t capture_events);
  ~Consumer();
  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  void Start();
  void Stop();  // closes the subscriber and joins

  [[nodiscard]] uint64_t count() const noexcept { return count_.load(std::memory_order_acquire); }
  [[nodiscard]] int64_t last_recv_ns() const noexcept {
    return last_recv_ns_.load(std::memory_order_acquire);
  }
  // Highest global_seq received from `shard` so far.
  [[nodiscard]] uint64_t head(size_t shard) const noexcept {
    return head_[shard].load(std::memory_order_acquire);
  }
  [[nodiscard]] std::vector<Delivery> Snapshot() const;
  // After Stop().
  [[nodiscard]] std::vector<Delivery> TakeLog();
  [[nodiscard]] std::vector<sdci::monitor::EventBatch> TakeCaptured();

 private:
  void Run(const std::stop_token& stop);
  void Append(const sdci::monitor::EventBatch& batch, int64_t now);

  sdci::monitor::FleetSubscriber* subscriber_;
  const size_t capture_events_;
  mutable std::mutex mutex_;
  std::vector<Delivery> log_;
  std::vector<sdci::monitor::EventBatch> captured_;
  size_t captured_events_ = 0;
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> last_recv_ns_{0};
  std::atomic<uint64_t> head_[kShards] = {};
  std::jthread thread_;
};

// Traced runs only: samples the registry's saturation gauges every 10 ms
// and the process thread count, from its own thread.
class GaugeSampler {
 public:
  explicit GaugeSampler(std::shared_ptr<sdci::MetricsRegistry> registry);
  ~GaugeSampler();
  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;

  void Start();
  void Stop();
  // Mean over samples of the gauge summed across its series; last value.
  [[nodiscard]] double Mean(const std::string& name) const;
  [[nodiscard]] double Last(const std::string& name) const;
  [[nodiscard]] int max_threads() const noexcept { return max_threads_; }

 private:
  void Run(const std::stop_token& stop);

  std::shared_ptr<sdci::MetricsRegistry> registry_;
  mutable std::mutex mutex_;
  struct Series {
    double sum = 0;
    double last = 0;
  };
  std::map<std::string, Series> series_;
  uint64_t samples_ = 0;
  int max_threads_ = 0;
  std::jthread thread_;
};

// Spans the benchmark records around its calls into the program's layers
// (traced runs only). Kept in memory, summarized per name and written out
// at the end of the run.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  void Record(std::string name, int64_t start_ns, int64_t end_ns);
  // Mean duration of the spans named `name` (0 when there are none).
  [[nodiscard]] double MeanNs(const std::string& name) const;
  // One JSON object per line; returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  static constexpr size_t kMaxKept = 200000;
  mutable std::mutex mutex_;
  std::vector<Span> kept_;
  std::map<std::string, std::pair<uint64_t, int64_t>> totals_;  // count, ns
};

// A directory the generator created, and the MDT its children journal on.
struct Dir {
  std::string path;
  int mdt = 0;
};
inline Dir RootDir() { return Dir{"/", 0}; }
std::string JoinPath(const std::string& dir, const std::string& leaf);
// Predicts the MKDIR record, then creates `leaf` under `parent`.
Dir MakeDir(sdci::lustre::FileSystem& fs, Oracle& oracle, const Dir& parent,
            const std::string& leaf);
// The oracle's record count must equal each ChangeLog's last index.
void RequireJournalMatches(const sdci::lustre::FileSystem& fs, const Oracle& oracle);

}  // namespace perfbench
