#include "monitor/ingest_pipeline.h"

#include "monitor/event_catalog.h"
#include "monitor/serve_plane.h"
#include "monitor/wire_v4.h"

namespace sdci::monitor {

namespace {
// Real-time poll quantum for the receive loop; bounds shutdown latency.
constexpr std::chrono::milliseconds kPollQuantum(5);
}  // namespace

IngestPipeline::IngestPipeline(const lustre::TestbedProfile& profile,
                               const TimeAuthority& authority,
                               msgq::Context& context,
                               const AggregatorConfig& config,
                               AggregatorAttachments& attachments,
                               EventCatalog& catalog, ServePlane& serve,
                               Instruments instruments,
                               std::shared_ptr<trace::Tracer> tracer,
                               const std::atomic<bool>& crashed)
    : profile_(profile),
      authority_(&authority),
      config_(&config),
      catalog_(&catalog),
      serve_(&serve),
      reorder_(config.IngestWindow()),
      hlc_(static_cast<uint32_t>(config.shard_index)),
      instruments_(std::move(instruments)),
      tracer_(std::move(tracer)),
      crashed_(&crashed) {
  if (config.transport == CollectTransport::kPubSub) {
    if (attachments.ingest_sub != nullptr) {
      sub_ = std::move(attachments.ingest_sub);
    } else {
      sub_ = context.CreateSub(config.collect_endpoint, config.ingest_hwm,
                               msgq::HwmPolicy::kBlock);
      sub_->Subscribe("");  // all collectors
    }
  } else {
    pull_ = attachments.ingest_pull != nullptr
                ? std::move(attachments.ingest_pull)
                : context.CreatePull(config.collect_endpoint, config.ingest_hwm);
  }
  if (attachments.checkpoint != nullptr) {
    // Restore: sequences resume past everything ever assigned (the catalog
    // replays the WAL into the store from the same checkpoint).
    next_seq_.store(attachments.checkpoint->NextSeq(), std::memory_order_relaxed);
  }
  const std::string instance = config.InstanceName();
  if (config.watermarks != nullptr) {
    wm_decode_ = config.watermarks->Handle(trace::kAggregatorDecode, instance);
    wm_ingest_ = config.watermarks->Handle(trace::kAggregatorIngest, instance);
    if (attachments.checkpoint != nullptr) {
      wm_commit_ = config.watermarks->Handle(trace::kAggregatorCommit, instance);
    }
  }
  if (config.flow != nullptr) {
    FlowLedger& flow = *config.flow;
    // The sequencer's event count is the "in" side of every downstream
    // boundary: each sequenced event must end up committed (WAL), stored
    // and published — or explicitly discarded by a crash.
    if (attachments.checkpoint != nullptr) {
      flow.Bind("shard.wal", instance, FlowKind::kIn, "sequenced",
                instruments_.received);
      committed_ = flow.Account("shard.wal", instance, FlowKind::kOut,
                                "committed");
    }
    flow.Bind("shard.store", instance, FlowKind::kIn, "sequenced",
              instruments_.received);
    discarded_store_ =
        flow.Account("shard.store", instance, FlowKind::kOut, "discarded");
    flow.Bind("shard.publish", instance, FlowKind::kIn, "sequenced",
              instruments_.received);
    discarded_publish_ =
        flow.Account("shard.publish", instance, FlowKind::kOut, "discarded");
  }
}

void IngestPipeline::Start() {
  {
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    // The receiver thread is the pool's only submitter (the SPSC feed's
    // contract) — the receiver->decode hand-off is the hottest hop on the
    // ingest side.
    pool_ = std::make_unique<ThreadPool>(config_->IngestWorkers(),
                                         config_->IngestWindow());
    worker_budgets_.clear();
    for (size_t i = 0; i < config_->IngestWorkers(); ++i) {
      worker_budgets_.push_back(std::make_unique<DelayBudget>(*authority_));
    }
  }
  reorder_.Reopen();
  receive_thread_ =
      std::jthread([this](const std::stop_token& stop) { ReceiveLoop(stop); });
  sequencer_thread_ = std::jthread([this] { SequencerLoop(); });
}

void IngestPipeline::StopAndDrain() {
  receive_thread_.request_stop();
  if (receive_thread_.joinable()) receive_thread_.join();
  if (pool_ != nullptr) pool_->Shutdown();
  reorder_.MarkDone();
  if (sequencer_thread_.joinable()) sequencer_thread_.join();
}

size_t IngestPipeline::PoolDepth() const {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  return pool_ != nullptr ? pool_->QueueDepth() : 0;
}

VirtualDuration IngestPipeline::WorkerBusyTotal() const {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  VirtualDuration total{};
  for (const auto& budget : worker_budgets_) total += budget->TotalCharged();
  return total;
}

void IngestPipeline::ReceiveLoop(const std::stop_token& stop) {
  const auto receive = [&]() -> Result<msgq::Message> {
    if (sub_ != nullptr) return sub_->ReceiveFor(kPollQuantum);
    return pull_->PullFor(kPollQuantum);
  };
  // After stop is requested, keep draining until the socket runs dry so
  // collector flushes are not lost.
  int idle_rounds_after_stop = 0;
  while (true) {
    // The crash point sits *before* receive: once a message is popped off
    // the (incarnation-surviving) ingest socket it is ticketed and runs
    // through the checkpoint commit, because the collector purged its
    // records when the socket accepted the hand-off.
    if (crashed_->load(std::memory_order_acquire)) break;
    auto message = receive();
    if (!message.ok()) {
      if (message.status().code() == StatusCode::kClosed) break;
      if (stop.stop_requested() && ++idle_rounds_after_stop >= 2) break;
      continue;
    }
    idle_rounds_after_stop = 0;
    // Window backpressure: never run more than IngestWindow() tickets
    // ahead of the sequencer, so a stalled commit pushes back on the
    // socket (and through it, the collectors) instead of buffering decoded
    // batches without bound. The wait is non-interruptible — the sequencer
    // keeps releasing tickets during a crash, so it always makes progress,
    // and this message must not be dropped.
    const uint64_t ticket = reorder_.Acquire();
    (void)pool_->Submit(
        [this, ticket, message = std::move(message.value())](size_t worker) mutable {
          DecodeTask(ticket, std::move(message), worker);
        });
  }
}

void IngestPipeline::DecodeTask(uint64_t ticket, msgq::Message message,
                                size_t worker) {
  DecodedMessage out;
  out.decode_start = tracer_ != nullptr ? authority_->Now() : VirtualTime{};
  // One byte copy into a private mutable buffer (the socket payload is
  // shared with other subscribers, so it cannot be patched in place), then
  // validation is a header + offset-table scan — no FsEvent is
  // materialized anywhere in this pipeline. The sequencer later stamps
  // global_seq / HLC straight into the buffer and freezes it as the
  // publish payload. Payloads that are malformed, carry zero events (the
  // wire contract is >= 1 event) or any codec version but v4 are released
  // as decode errors.
  const std::string_view bytes = message.bytes();
  out.v4.assign(bytes.data(), bytes.size());
  auto view = wire::EventBatchView::Bind(out.v4);
  if (!view.ok() || view->empty()) {
    out.v4.clear();
    reorder_.Complete(ticket, std::move(out));
    return;
  }
  const size_t count = view->size();
  out.ok = true;
  out.v4_count = static_cast<uint32_t>(count);
  out.last_time = view->time(count - 1);
  if (wm_decode_ != nullptr) wm_decode_->Advance(out.last_time);
  // The modeled per-event ingest cost lands on this worker's budget: with
  // N workers the latency overlaps N-ways, which is exactly the
  // concurrency the decode pool exists to buy.
  DelayBudget& budget = *worker_budgets_[worker];
  budget.Charge(profile_.aggregator_ingest_latency * static_cast<int64_t>(count));
  budget.Flush();
  if (tracer_ != nullptr) {
    // Each traced event gets a decode span hung off the collector's
    // publish span; the sequencer re-parents the event onto its ingest
    // span next, keeping the chain publish -> decode -> ingest.
    out.decode_end = authority_->Now();
    wire::MutableBatchV4 mut(out.v4);
    for (size_t i = 0; i < count; ++i) {
      const uint64_t trace_id = view->trace_id(i);
      if (trace_id == 0) continue;
      const uint64_t span_id = tracer_->NewSpanId();
      tracer_->RecordSpan({trace_id, span_id, view->parent_span(i),
                           std::string(trace::kAggregatorDecode), "aggregator",
                           out.decode_start, out.decode_end - out.decode_start});
      mut.SetParentSpan(i, span_id);
    }
  }
  reorder_.Complete(ticket, std::move(out));
}

void IngestPipeline::SequencerLoop() {
  // Opportunistic group commit: fold every already-decoded consecutive
  // ticket (up to wal_group_max) into one release. A lone ready ticket
  // goes through alone — the group never waits to fill.
  const size_t group_max = config_->wal_group_max == 0 ? 1 : config_->wal_group_max;
  while (true) {
    auto group = reorder_.TakeGroup(group_max);
    if (group.empty()) break;  // drained and done
    SequenceAndCommit(std::move(group));
  }
}

void IngestPipeline::SequenceAndCommit(std::vector<DecodedMessage> group) {
  // Traced events re-parent onto this stage's ingest span before their
  // batch freezes, so the published wire bytes (and the JSON the history
  // API serves) carry the aggregator-side span to hang consumers off.
  struct PendingSpan {
    uint64_t trace_id, span_id;
  };
  std::vector<PendingSpan> pending;  // whole group, for wal/commit spans
  std::vector<EventBatch> batches;
  batches.reserve(group.size());
  uint64_t watermark = 0;
  uint64_t group_events = 0;       // ledger: events sequenced this group
  VirtualTime group_newest{};      // newest birth time this group
  for (DecodedMessage& item : group) {
    if (!item.ok) {
      instruments_.decode_errors->Add();
      continue;
    }
    const uint64_t count = item.v4_count;
    const VirtualTime now = authority_->Now();
    // One sequence range per batch, assigned in arrival (ticket) order by
    // this single sequencer: one atomic op instead of one per event, and
    // global_seq stays monotone in publication order no matter how many
    // decode workers raced ahead.
    const uint64_t base = next_seq_.fetch_add(count, std::memory_order_relaxed);
    watermark = base + count;
    // Stamp-in-place: global_seq and the HLC stamp land at fixed offsets in
    // the flat buffer — no decode, no re-encode. The buffer then freezes as
    // the batch's (and the publish message's and the store's) payload;
    // only history pages are ever materialized.
    {
      wire::MutableBatchV4 mut(item.v4);
      for (uint64_t i = 0; i < count; ++i) {
        mut.SetGlobalSeq(i, base + i);
        // HLC stamps ride the same single-threaded assignment, so within a
        // shard HLC order equals sequence order; across shards the stamps
        // are the total order the federation layer merges by.
        mut.SetHlc(i, hlc_.Tick(now));
      }
      if (tracer_ != nullptr) {
        const VirtualTime ingest_end = authority_->Now();
        auto view = wire::EventBatchView::Bind(item.v4);
        if (view.ok()) {
          for (uint64_t i = 0; i < count; ++i) {
            const uint64_t trace_id = view->trace_id(i);
            if (trace_id == 0) continue;
            const uint64_t span_id = tracer_->NewSpanId();
            tracer_->RecordSpan({trace_id, span_id, view->parent_span(i),
                                 std::string(trace::kAggregatorIngest), "aggregator",
                                 now, ingest_end - now});
            mut.SetParentSpan(i, span_id);
            pending.push_back({trace_id, span_id});
          }
        }
      }
    }
    auto bound = EventBatch::FromPayload(std::move(item.v4));
    if (!bound.ok()) {
      // Unreachable by construction (the decode stage validated these bytes
      // and only fixed-offset fields changed), but never let a malformed
      // buffer past the sequencer.
      instruments_.decode_errors->Add();
      continue;
    }
    instruments_.received->Add(count);
    instruments_.batches_received->Add();
    group_events += count;
    group_newest = std::max(group_newest, item.last_time);
    if (wm_ingest_ != nullptr) wm_ingest_->Advance(item.last_time);
    batches.push_back(std::move(bound.value()));
  }
  if (batches.empty()) return;
  // Write-ahead: the whole group (and the advanced watermark) reach the
  // checkpoint before any batch becomes visible downstream, so every
  // assigned global_seq survives a crash even if the publish/store
  // queues die with this incarnation.
  if (catalog_->has_checkpoint()) {
    if (config_->commit_hook) config_->commit_hook(batches.size());
    const VirtualTime commit_start =
        tracer_ != nullptr && !pending.empty() ? authority_->Now() : VirtualTime{};
    catalog_->CommitGroup(batches, watermark);
    instruments_.wal_group_size->Record(
        VirtualDuration(static_cast<int64_t>(batches.size())));
    if (committed_ != nullptr) committed_->Add(group_events);
    if (wm_commit_ != nullptr) wm_commit_->Advance(group_newest);
    if (tracer_ != nullptr && !pending.empty()) {
      const VirtualTime commit_end = authority_->Now();
      for (const PendingSpan& span : pending) {
        tracer_->Record(span.trace_id, span.span_id, trace::kAggregatorCommit,
                        "aggregator", commit_start, commit_end);
        tracer_->Record(span.trace_id, span.span_id, trace::kWalAppend,
                        "aggregator", commit_start, commit_end);
      }
    }
  }
  // On crash the hand-off is skipped: the group is durable in the WAL (the
  // next incarnation's history API serves it) but this process's queues
  // are dead memory. The ledger counts the skipped events as discarded on
  // both downstream boundaries — the flows a real crash loses from
  // process memory (the WAL restore re-enters the store as "restored").
  if (crashed_->load(std::memory_order_acquire)) {
    if (discarded_store_ != nullptr) discarded_store_->Add(group_events);
    if (discarded_publish_ != nullptr) discarded_publish_->Add(group_events);
    return;
  }
  // Hand off to both downstream threads, in ticket order. Blocking pushes
  // propagate backpressure to the collectors ("no loss of events once
  // they have been processed"). Both sides get the same sequenced batches:
  // copying the vector only bumps refcounts on the one shared v4 buffer
  // per batch, so the publish thread sends each collector message on as
  // exactly one message. One bulk push per queue for the whole group: one
  // lock acquisition and one consumer wake, instead of one of each per
  // batch.
  if (!serve_->Enqueue(batches).ok()) {
    // Hand-off queues only close mid-sequence on a crash: both boundaries
    // lose the group.
    if (discarded_store_ != nullptr) discarded_store_->Add(group_events);
    if (discarded_publish_ != nullptr) discarded_publish_->Add(group_events);
    return;
  }
  if (!catalog_->Enqueue(std::move(batches)).ok()) {
    if (discarded_store_ != nullptr) discarded_store_->Add(group_events);
  }
}

}  // namespace sdci::monitor
