// ServePlane: the consumer-facing role of an aggregator shard.
//
// Owns the live PUB fan-out (one publish thread draining the sequencer's
// hand-off queue in sequence order) and the history/range REQ/REP API
// (one api thread answering out of the shard's EventCatalog). Publication
// order matches sequence order because the single sequencer enqueues in
// ticket order and the single publish thread drains FIFO — the exact
// contract RecoveringSubscriber's gap detection is built on.
#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/queue.h"
#include "common/tracing.h"
#include "monitor/aggregator.h"
#include "monitor/event.h"
#include "msgq/context.h"

namespace sdci::monitor {

class EventCatalog;

class ServePlane {
 public:
  // Shard-owned instruments this role records into (the shard keeps the
  // *_base_ snapshots so Stats() stays per-incarnation).
  struct Instruments {
    std::shared_ptr<Counter> published;
    std::shared_ptr<Counter> batches_published;
    std::shared_ptr<LatencyHistogram> delivery_latency;
  };

  ServePlane(const TimeAuthority& authority, msgq::Context& context,
             const AggregatorConfig& config, const EventCatalog& catalog,
             Instruments instruments, std::shared_ptr<trace::Tracer> tracer,
             const std::atomic<bool>& crashed);

  ServePlane(const ServePlane&) = delete;
  ServePlane& operator=(const ServePlane&) = delete;

  // Spawns the publish and api threads.
  void Start();
  // Shutdown protocol, driven by the shard: ClosePublish() (the publish
  // thread drains and exits), optionally DiscardPublishQueue() on crash,
  // JoinPublish(), then StopApi() last so the history API keeps answering
  // while upstream drains.
  void ClosePublish();
  void DiscardPublishQueue();
  void JoinPublish();
  void StopApi();

  // Sequencer hand-off: the sequenced batches the catalog also receives,
  // in sequence order. Each is published as one message under
  // kEventStreamTopic; subscribers filter by type (EventSubscriber).
  Status Enqueue(std::vector<EventBatch> batches);

  [[nodiscard]] size_t PublishQueueDepth() const { return queue_.size(); }

 private:
  void PublishLoop();
  void ApiLoop(const std::stop_token& stop);
  void HandleApiRequest(msgq::Request& request);

  const TimeAuthority* authority_;
  const AggregatorConfig* config_;
  const EventCatalog* catalog_;

  std::shared_ptr<msgq::PubSocket> pub_;
  std::shared_ptr<msgq::RepSocket> rep_;
  BoundedQueue<EventBatch> queue_;

  Instruments instruments_;
  std::shared_ptr<trace::Tracer> tracer_;
  const std::atomic<bool>* crashed_;

  // Flow-ledger accounts and publish watermark (null when the shard runs
  // without a ledger / watermark registry). `discarded_` is the same
  // counter the ingest pipeline books its crash-path abandonments into —
  // both sides resolve it through FlowLedger::Account's create-or-get.
  std::shared_ptr<Counter> discarded_;  // shard.publish out (crash, malformed)
  std::shared_ptr<StageWatermark> wm_publish_;

  std::jthread publish_thread_;
  std::jthread api_thread_;
};

}  // namespace sdci::monitor
