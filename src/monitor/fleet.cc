#include "monitor/fleet.h"

#include <cassert>

namespace sdci::monitor {

AggregatorFleet::AggregatorFleet(const lustre::TestbedProfile& profile,
                                 const TimeAuthority& authority,
                                 msgq::Context& context,
                                 AggregatorFleetConfig config)
    : config_(std::move(config)) {
  if (config_.shards == 0) config_.shards = 1;
  for (size_t i = 0; i < config_.shards; ++i) {
    if (config_.supervised) {
      supervisors_.push_back(std::make_unique<AggregatorSupervisor>(
          profile, authority, context, ShardConfig(i), config_.supervisor));
    } else {
      shards_.push_back(std::make_unique<Aggregator>(profile, authority, context,
                                                     ShardConfig(i)));
    }
  }
}

AggregatorFleet::~AggregatorFleet() { Stop(); }

AggregatorConfig AggregatorFleet::ShardConfig(size_t index) const {
  AggregatorConfig shard = config_.shard;
  shard.collect_endpoint =
      ShardEndpoint(config_.shard.collect_endpoint, index, config_.shards);
  shard.publish_endpoint =
      ShardEndpoint(config_.shard.publish_endpoint, index, config_.shards);
  shard.api_endpoint =
      ShardEndpoint(config_.shard.api_endpoint, index, config_.shards);
  shard.shard_index = index;
  shard.shard_count = config_.shards;
  return shard;
}

std::string AggregatorFleet::ShardEndpoint(const std::string& base, size_t shard,
                                           size_t shards) {
  if (shards <= 1) return base;
  return base + "." + std::to_string(shard);
}

void AggregatorFleet::Start() {
  for (auto& supervisor : supervisors_) supervisor->Start();
  for (auto& shard : shards_) shard->Start();
}

void AggregatorFleet::Stop() {
  for (auto& supervisor : supervisors_) supervisor->Stop();
  for (auto& shard : shards_) shard->Stop();
}

std::string AggregatorFleet::collect_endpoint(size_t shard) const {
  return ShardEndpoint(config_.shard.collect_endpoint, shard, config_.shards);
}

std::string AggregatorFleet::publish_endpoint(size_t shard) const {
  return ShardEndpoint(config_.shard.publish_endpoint, shard, config_.shards);
}

std::string AggregatorFleet::api_endpoint(size_t shard) const {
  return ShardEndpoint(config_.shard.api_endpoint, shard, config_.shards);
}

std::vector<std::string> AggregatorFleet::publish_endpoints() const {
  std::vector<std::string> endpoints;
  endpoints.reserve(config_.shards);
  for (size_t i = 0; i < config_.shards; ++i) endpoints.push_back(publish_endpoint(i));
  return endpoints;
}

std::vector<std::string> AggregatorFleet::api_endpoints() const {
  std::vector<std::string> endpoints;
  endpoints.reserve(config_.shards);
  for (size_t i = 0; i < config_.shards; ++i) endpoints.push_back(api_endpoint(i));
  return endpoints;
}

Aggregator& AggregatorFleet::shard(size_t index) {
  assert(!config_.supervised);
  return *shards_.at(index);
}

const Aggregator& AggregatorFleet::shard(size_t index) const {
  assert(!config_.supervised);
  return *shards_.at(index);
}

AggregatorSupervisor* AggregatorFleet::supervisor(size_t index) {
  return config_.supervised ? supervisors_.at(index).get() : nullptr;
}

const AggregatorSupervisor* AggregatorFleet::supervisor(size_t index) const {
  return config_.supervised ? supervisors_.at(index).get() : nullptr;
}

AggregatorStats AggregatorFleet::Stats() const {
  AggregatorStats total;
  for (const AggregatorStats& stats : ShardStats()) total += stats;
  return total;
}

std::vector<AggregatorStats> AggregatorFleet::ShardStats() const {
  std::vector<AggregatorStats> stats;
  stats.reserve(config_.shards);
  for (const auto& supervisor : supervisors_) stats.push_back(supervisor->Stats());
  for (const auto& shard : shards_) stats.push_back(shard->Stats());
  return stats;
}

AggregatorShardStatus AggregatorFleet::Status(size_t index) const {
  return config_.supervised ? supervisors_.at(index)->Status()
                            : shards_.at(index)->Status();
}

std::vector<ResourceUsage> AggregatorFleet::Usage(VirtualDuration elapsed) const {
  std::vector<ResourceUsage> usage;
  usage.reserve(shards_.size());
  for (const auto& shard : shards_) usage.push_back(shard->Usage(elapsed));
  return usage;
}

}  // namespace sdci::monitor
