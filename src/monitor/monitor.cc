#include "monitor/monitor.h"

namespace sdci::monitor {

void MonitorConfig::SetCollectEndpoint(std::string endpoint) {
  collector.collect_endpoint = endpoint;
  aggregator.collect_endpoint = std::move(endpoint);
}

void MonitorConfig::SetTransport(CollectTransport transport) {
  collector.transport = transport;
  aggregator.transport = transport;
}

void MonitorConfig::SetMetrics(std::shared_ptr<MetricsRegistry> metrics) {
  collector.metrics = metrics;
  aggregator.metrics = std::move(metrics);
}

void MonitorConfig::SetTracer(std::shared_ptr<trace::Tracer> tracer) {
  collector.tracer = tracer;
  aggregator.tracer = std::move(tracer);
}

void MonitorConfig::SetFlowLedger(std::shared_ptr<FlowLedger> flow) {
  collector.flow = flow;
  aggregator.flow = std::move(flow);
}

void MonitorConfig::SetWatermarks(std::shared_ptr<WatermarkRegistry> watermarks) {
  collector.watermarks = watermarks;
  aggregator.watermarks = std::move(watermarks);
}

Monitor::Monitor(lustre::FileSystem& fs, const lustre::TestbedProfile& profile,
                 const TimeAuthority& authority, msgq::Context& context,
                 MonitorConfig config)
    : config_(std::move(config)) {
  // The aggregator shards' sockets must exist before collectors publish
  // (PUB/SUB drops messages with no subscriber).
  AggregatorFleetConfig fleet_config;
  fleet_config.shards = config_.aggregator_shards == 0 ? 1 : config_.aggregator_shards;
  fleet_config.shard = config_.aggregator;
  fleet_ = std::make_unique<AggregatorFleet>(profile, authority, context, fleet_config);
  collectors_.reserve(fs.MdsCount());
  for (size_t i = 0; i < fs.MdsCount(); ++i) {
    // Route each collector to the shard that owns its MDT (with one shard
    // ShardEndpoint is the identity).
    CollectorConfig collector_config = config_.collector;
    collector_config.collect_endpoint = AggregatorFleet::ShardEndpoint(
        collector_config.collect_endpoint,
        fleet_->ShardForMdt(static_cast<uint32_t>(i)), fleet_->shards());
    collectors_.push_back(std::make_unique<Collector>(
        fs, static_cast<int>(i), profile, authority, context,
        std::move(collector_config)));
  }
}

Monitor::~Monitor() { Stop(); }

void Monitor::Start() {
  if (started_) return;
  started_ = true;
  fleet_->Start();
  for (auto& collector : collectors_) collector->Start();
}

void Monitor::Stop() {
  if (!started_) return;
  started_ = false;
  // Collectors first (they flush), then the aggregator shards (they drain).
  for (auto& collector : collectors_) collector->Stop();
  fleet_->Stop();
}

MonitorStats Monitor::Stats() const {
  MonitorStats stats;
  stats.collectors.reserve(collectors_.size());
  for (const auto& collector : collectors_) {
    stats.collectors.push_back(collector->Stats());
    stats.total_extracted += stats.collectors.back().extracted;
    stats.total_reported += stats.collectors.back().reported;
  }
  stats.aggregator = fleet_->Stats();
  stats.aggregator_shards = fleet_->ShardStats();
  return stats;
}

std::vector<const Collector*> Monitor::collectors() const {
  std::vector<const Collector*> collectors;
  collectors.reserve(collectors_.size());
  for (const auto& collector : collectors_) collectors.push_back(collector.get());
  return collectors;
}

std::vector<ResourceUsage> Monitor::Usage(VirtualDuration elapsed) const {
  std::vector<ResourceUsage> usage;
  usage.reserve(collectors_.size() + fleet_->shards());
  for (const auto& collector : collectors_) {
    usage.push_back(collector->Usage(elapsed));
  }
  for (auto& shard_usage : fleet_->Usage(elapsed)) {
    usage.push_back(std::move(shard_usage));
  }
  return usage;
}

}  // namespace sdci::monitor
