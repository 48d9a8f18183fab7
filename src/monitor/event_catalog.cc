#include "monitor/event_catalog.h"

#include "monitor/wire_v4.h"

namespace sdci::monitor {

namespace {
// Max batches the store thread takes per bulk pop. Bounds how much a crash
// discards from the queue while still amortizing lock traffic.
constexpr size_t kBulkPop = 16;
}  // namespace

EventCatalog::EventCatalog(const TimeAuthority& authority,
                           const AggregatorConfig& config,
                           AggregatorCheckpoint* checkpoint,
                           std::shared_ptr<trace::Tracer> tracer,
                           const std::atomic<bool>& crashed)
    : authority_(&authority),
      checkpoint_(checkpoint),
      store_(config.store_capacity),
      queue_(config.internal_queue),
      tracer_(std::move(tracer)),
      crashed_(&crashed) {
  const std::string instance = config.InstanceName();
  if (config.watermarks != nullptr) {
    wm_store_ = config.watermarks->Handle(trace::kStoreAppend, instance);
  }
  if (config.flow != nullptr) {
    stored_ = config.flow->Account("shard.store", instance, FlowKind::kOut,
                                   "stored");
    restored_ = config.flow->Account("shard.store", instance, FlowKind::kIn,
                                     "restored");
    discarded_ = config.flow->Account("shard.store", instance, FlowKind::kOut,
                                      "discarded");
  }
  if (checkpoint_ != nullptr) {
    // Restore: the catalog replays the WAL so the history API still
    // answers for pre-crash events (the sequence watermark is restored by
    // the ingest pipeline from the same checkpoint). The replayed events
    // enter the store boundary a second time ("restored"), matching the
    // "discarded" the crashed incarnation booked for them.
    for (const EventBatch& batch : checkpoint_->WalSnapshot()) {
      store_.Append(batch);
      restored_events_ += batch.size();
      if (restored_ != nullptr) restored_->Add(batch.size());
      if (stored_ != nullptr) stored_->Add(batch.size());
    }
  }
}

void EventCatalog::Start() {
  thread_ = std::jthread([this] { StoreLoop(); });
}

void EventCatalog::CloseQueue() { queue_.Close(); }

void EventCatalog::DiscardQueue() {
  for (const EventBatch& batch : queue_.TryPopAll()) {
    if (discarded_ != nullptr) discarded_->Add(batch.size());
  }
}

void EventCatalog::Join() {
  if (thread_.joinable()) thread_.join();
}

void EventCatalog::CommitGroup(const std::vector<EventBatch>& group,
                               uint64_t watermark) {
  if (checkpoint_ == nullptr) return;
  checkpoint_->Append(group, watermark);
}

Status EventCatalog::Enqueue(std::vector<EventBatch> batches) {
  return queue_.PushAll(std::move(batches));
}

void EventCatalog::StoreLoop() {
  while (true) {
    auto batches = queue_.PopAll(kBulkPop);
    if (!batches.ok()) break;  // closed and drained
    for (EventBatch& batch : *batches) {
      // On crash, queued batches are lost with the process (they were
      // checkpointed before becoming visible, so the next incarnation's
      // history API still serves them).
      if (crashed_->load(std::memory_order_acquire)) {
        if (discarded_ != nullptr) discarded_->Add(batch.size());
        continue;
      }
      const VirtualTime store_start =
          tracer_ != nullptr ? authority_->Now() : VirtualTime{};
      store_.Append(batch);
      // Watermark and trace fields come from the bound view: materializing
      // the batch here would pin an FsEvent copy of every stored batch.
      const wire::EventBatchView& view = batch.view();
      const size_t count = view.size();
      if (wm_store_ != nullptr && count > 0) wm_store_->Advance(view.time(count - 1));
      if (tracer_ != nullptr) {
        const VirtualTime store_end = authority_->Now();
        for (size_t i = 0; i < count; ++i) {
          if (view.trace_id(i) == 0) continue;
          tracer_->Record(view.trace_id(i), view.parent_span(i), trace::kStoreAppend,
                          "aggregator", store_start, store_end);
        }
      }
      // Counted last: whoever sees a batch as stored also sees its spans.
      if (stored_ != nullptr) stored_->Add(count);
    }
  }
}

}  // namespace sdci::monitor
