// AggregatorFleet: N aggregator shards behind one routing rule.
//
// A single aggregator is the monitor's fan-in point and, at enough MDTs,
// its bottleneck. The fleet scales the role out the way Lustre scales
// metadata out (DNE round-robins directories across MDTs): collectors are
// keyed by the MDS group they watch — shard = mdt % shards — so each
// shard ingests a disjoint subset of MDTs and runs its own sequencer,
// checkpoint WAL, store and endpoints. Per-shard global_seq stays dense
// (gap detection and backfill keep working unchanged per shard); the HLC
// stamp every sequencer assigns (origin == shard index) gives the
// federation layer (federation.h) a total order to merge live streams and
// history pages across shards.
//
// A fleet of 1 has the same shape as a fleet of N (labelled series,
// "shard0" ledger instance, per-shard status); only its endpoints stay
// unsuffixed, because addresses are deployment settings.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "monitor/aggregator.h"
#include "monitor/aggregator_supervisor.h"

namespace sdci::monitor {

struct AggregatorFleetConfig {
  // Fleet width. Each shard ingests the MDTs with mdt % shards == index.
  size_t shards = 1;
  // Per-shard template. Its three endpoints are *bases*: shard i binds
  // "<base>.<i>" (unsuffixed when shards == 1). shard_index/shard_count
  // are overwritten per shard.
  AggregatorConfig shard;
  // When true each shard runs under its own AggregatorSupervisor (durable
  // checkpoint + pre-bound ingest socket + crash/restart loop).
  bool supervised = false;
  AggregatorSupervisorConfig supervisor;
};

class AggregatorFleet {
 public:
  AggregatorFleet(const lustre::TestbedProfile& profile,
                  const TimeAuthority& authority, msgq::Context& context,
                  AggregatorFleetConfig config);
  ~AggregatorFleet();

  AggregatorFleet(const AggregatorFleet&) = delete;
  AggregatorFleet& operator=(const AggregatorFleet&) = delete;

  void Start();
  void Stop();

  // "<base>.<shard>" — or `base` itself for a fleet of one, so a
  // single-shard fleet is endpoint-compatible with every existing
  // collector, subscriber and tool.
  [[nodiscard]] static std::string ShardEndpoint(const std::string& base,
                                                 size_t shard, size_t shards);

  // The routing rule: which shard ingests an MDT's collector stream.
  [[nodiscard]] size_t ShardForMdt(uint32_t mdt_index) const noexcept {
    return mdt_index % config_.shards;
  }

  [[nodiscard]] size_t shards() const noexcept { return config_.shards; }
  [[nodiscard]] std::string collect_endpoint(size_t shard) const;
  [[nodiscard]] std::string publish_endpoint(size_t shard) const;
  [[nodiscard]] std::string api_endpoint(size_t shard) const;
  // All shards' endpoints in index order (federation client inputs).
  [[nodiscard]] std::vector<std::string> publish_endpoints() const;
  [[nodiscard]] std::vector<std::string> api_endpoints() const;

  // Unsupervised fleets only (supervised shards may be mid-restart).
  [[nodiscard]] Aggregator& shard(size_t index);
  [[nodiscard]] const Aggregator& shard(size_t index) const;
  // Supervised fleets only; nullptr otherwise.
  [[nodiscard]] AggregatorSupervisor* supervisor(size_t index);
  [[nodiscard]] const AggregatorSupervisor* supervisor(size_t index) const;
  [[nodiscard]] bool supervised() const noexcept { return config_.supervised; }

  // Fleet-total stats (sum over shards, each cumulative across its
  // incarnations) and the per-shard breakdown.
  [[nodiscard]] AggregatorStats Stats() const;
  [[nodiscard]] std::vector<AggregatorStats> ShardStats() const;
  // One shard's health, alike for plain and supervised shards.
  [[nodiscard]] AggregatorShardStatus Status(size_t index) const;
  // One entry per shard, component "aggregator.<i>". Unsupervised fleets
  // only.
  [[nodiscard]] std::vector<ResourceUsage> Usage(VirtualDuration elapsed) const;

 private:
  [[nodiscard]] AggregatorConfig ShardConfig(size_t index) const;

  AggregatorFleetConfig config_;
  // Exactly one of the two vectors is populated, per config_.supervised.
  std::vector<std::unique_ptr<Aggregator>> shards_;
  std::vector<std::unique_ptr<AggregatorSupervisor>> supervisors_;
};

}  // namespace sdci::monitor
