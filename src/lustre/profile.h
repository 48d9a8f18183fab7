// Testbed performance profiles.
//
// The paper evaluates on two Lustre deployments with very different
// capabilities (Table 2): a 20 GB cloud deployment on five t2.micro EC2
// instances ("AWS") and ANL's 897 TB Iota cluster ("Iota"). We model each
// testbed as a set of per-operation metadata latencies plus the costs of
// the monitor-facing primitives (changelog reads, fid2path). Latencies are
// calibrated so that a single client stream reproduces the paper's
// per-operation event rates; see EXPERIMENTS.md for the calibration table.
#pragma once

#include <cstdint>
#include <string>

#include "common/clock.h"

namespace sdci::lustre {

// Virtual-time cost of each metadata operation (mean; jitter applied by
// the client).
struct OpLatencies {
  VirtualDuration create{};
  VirtualDuration mkdir{};
  VirtualDuration write{};    // data write incl. mtime update ("modify")
  VirtualDuration setattr{};
  VirtualDuration unlink{};
  VirtualDuration rmdir{};
  VirtualDuration rename{};
  VirtualDuration stat{};
  VirtualDuration readdir_per_entry{};
  double jitter_frac = 0.05;  // uniform +/- fraction applied per op
};

struct TestbedProfile {
  std::string name;

  // Cluster shape.
  uint32_t mds_count = 1;
  uint32_t ost_count = 1;
  uint64_t ost_capacity_bytes = 20ull << 30;
  uint32_t default_stripe_count = 1;
  uint32_t stripe_size = 1u << 20;

  OpLatencies op;

  // Monitor-facing costs.
  VirtualDuration fid2path_latency{};            // one fid2path invocation
  VirtualDuration fid2path_batch_base{};         // fixed cost of a batched call
  VirtualDuration fid2path_batch_per_item{};     // marginal item cost in a batch
  VirtualDuration changelog_read_base{};         // fixed cost per read call
  VirtualDuration changelog_read_per_record{};   // marginal cost per record read
  VirtualDuration changelog_clear_latency{};     // cost of changelog_clear
  VirtualDuration collector_publish_latency{};   // serialize + send one message
  // Per-event ingest cost at the aggregator: validate the flat v4 message
  // (a header/offset-table scan, no per-field copies until the store
  // boundary) and enqueue it. Calibrated from the codec microbench (see
  // EXPERIMENTS.md "Wire codec sweep").
  VirtualDuration aggregator_ingest_latency{};

  // Modeled *CPU* cost per event for Table 3 style accounting (most of the
  // latency figures above are I/O or RPC wait, not CPU).
  VirtualDuration collector_cpu_per_event{};
  VirtualDuration aggregator_cpu_per_event{};
  VirtualDuration consumer_cpu_per_event{};

  // The AWS testbed from the paper: Lustre Intel Cloud Edition 1.4, five
  // t2.micro instances, 20 GB, 1 MDS / 1 OSS. Calibrated to Table 2 row 1.
  static TestbedProfile Aws();

  // ANL Iota: 897 TB, 4 MDS (evaluation used one), 44 compute nodes.
  // Calibrated to Table 2 row 2.
  static TestbedProfile Iota();

  // A personal device (the Ripple laptop deployment): single "MDS"
  // (there is only one machine), SSD-class metadata latencies.
  static TestbedProfile Laptop();

  // A fast profile for unit tests: near-zero latencies, 2 MDS.
  static TestbedProfile Test();
};

}  // namespace sdci::lustre
