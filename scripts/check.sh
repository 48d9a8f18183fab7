#!/usr/bin/env bash
# Pre-merge gate.
#
# Default: build everything with ASan+UBSan and run the full test suite,
# then again under TSan (the two cannot share a build). Slow; use before
# merging pipeline or messaging changes (shared-payload bugs are exactly
# what ASan catches; the supervisor's crash/restart and the subscriber's
# backfill paths are what TSan is for).
#
# --fast: one plain build + ctest, skipping the sanitizer rebuilds.
#
# --bench-json: additionally run bench_throughput --json and write the
# result to BENCH_throughput.json in the repo root (the checked-in perf
# baseline — includes the resolver-worker sweep and its speedup metric,
# plus the wire-codec sweep: flat v4 decode must be >= 2x the frozen
# field-wise comparator codec, and the 8-collector drain at the v4 ingest
# cost >= 1.5x the same fleet at the field-wise 35us/event cost — a
# calibration check of two profile inputs, not a codec measurement), then
# bench_failover --json to BENCH_failover.json and gate the
# degraded-mode federated query availability at >= 0.99, then
# bench_rules --json to BENCH_rules.json and gate the compiled rule
# index (>= 10x over the linear sweep at 100k rules; 1M rules within 3x
# the per-event latency of 1k rules), then bench_observability --json to
# BENCH_observability.json and gate the flow-ledger + watermark overhead
# at < 2% with a balanced ledger.
#
# Every mode ends with two health steps:
#   - the ctest output must contain no "[health] decode_errors=" marker
#     (an Aggregator emits it on Stop when it saw more decode errors than
#     its config expected — i.e. a wire-format regression);
#   - a smoke-run of bench_observability --quick --json, keeping the
#     machine-readable bench output path exercised.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

FAST=0
BENCH_JSON_OUT=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --bench-json) BENCH_JSON_OUT=1 ;;
    *)
      echo "usage: $0 [--fast] [--bench-json]" >&2
      exit 2
      ;;
  esac
done

FIRST_DIR=""

run_suite() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
  cmake --build "$dir" -j "$JOBS"
  local log="$dir/ctest-output.log"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" --output-log "$log"
  # The output log holds only failing tests' output; LastTest.log holds
  # every test's, so a passing test that trips the marker is seen too.
  if grep -F "[health] decode_errors=" "$log" "$dir/Testing/Temporary/LastTest.log"; then
    echo "FAIL: a test binary reported unexpected decode_errors (see above)" >&2
    exit 1
  fi
  [[ -n "$FIRST_DIR" ]] || FIRST_DIR="$dir"
}

if [[ "$FAST" == 1 ]]; then
  run_suite "${BUILD_DIR:-build}"
else
  run_suite "${BUILD_DIR:-build-asan}" \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  # The codec fuzz sweeps are the wire format's memory-safety gate: the
  # hostile-payload and bit-flip properties must actually have run under
  # ASan+UBSan (out-of-bounds reads in the cast-in-place v4 path are
  # exactly what this build exists to catch). The rule index's delta
  # property test frees shared trie nodes on every step. The event store
  # keeps views that alias payload bytes, and its pages must outlive the
  # rotation that frees their source batches. Subscribers pass received
  # batches through and copies outlive their originals: the shared bytes
  # must stay alive exactly as long as a view reads them. The ChangeLog
  # follow tests register and erase waiter targets from threads that race
  # the appends that reach them. The shard-shape tests read registry series
  # that every incarnation of a shard shares, across a crash and restart,
  # and a collector restart after abandoned reports re-reads its records.
  ASAN_LOG="${BUILD_DIR:-build-asan}/ctest-output.log"
  for test_name in V4RoundTripsEveryFieldExactly \
                   V4RejectsTruncationAtEveryCut \
                   V4MutatedPayloadsNeverCrashAndStayStructurallySound \
                   WireV4.BindRejectsStructuralCorruption \
                   DeltasMatchFromScratchBuildsAndOldSnapshotsPersist \
                   EventStore.PagesOutliveRotation \
                   RecoveringPassThrough.WhollyFreshBatchIsDeliveredWithTheMessagePayload \
                   RecoveringPassThrough.PartlyStaleDeliveryYieldsExactlyTheFreshEventsInOrder \
                   EventBatch.CopyReadsCorrectlyAfterTheOriginalIsDestroyed \
                   CloudAgentTest.BatchDeliveryMatchesPerEventDelivery \
                   ChangeLogFollow.WaiterWakesAtItsThreshold \
                   ChangeLogFollow.WaiterBelowItsThresholdTimesOut \
                   ChangeLogFollow.StopTokenInterruptsTheWait \
                   ChangeLogFollow.TwoWaitersWakeAtTheirOwnTargets \
                   ChangeLogFollow.AppendRacingRegistrationNeverLosesTheWakeup \
                   CollectorTest.RestartAfterAbandonedReportsDeliversThem \
                   CollectorTest.CleanRestartKeepsItsCursor \
                   MonitorTest.OneAndTwoShardFleetsShareOneShape \
                   FleetTest.SupervisedShardsOnOneRegistryCountTheirOwnCrashes \
                   AggregatorSupervisorTest.StatsAfterACrashAreTheRegistrySeries \
                   ApiEdge.StatsOpRepliesWithFleetPositionAndLastSeq; do
    if ! grep -q "$test_name" "$ASAN_LOG"; then
      echo "FAIL: $test_name did not run in the ASan+UBSan pass" >&2
      exit 1
    fi
  done
  run_suite "${TSAN_BUILD_DIR:-build-tsan}" \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  # The parallel-ingest and federation data-race gates must actually have
  # run under TSan (a silently filtered-out test would pass this script
  # while proving nothing about the sharded hot path or the cross-shard
  # merge). The one-message publish test crosses sequencer, publish and
  # subscriber threads; the registry test reads a callback on one thread
  # while another calls back into the registry. The rule-index delta race
  # frees snapshots under live readers; the cloud/agent interleaving
  # pushes filter changes from two control-plane threads. The event-store
  # snapshot test pages against a rotating writer. The lost-wakeup tests
  # race every blocking wait's park against its wake: SPSC consumer and
  # producer, Close() on parked sides, the SQS long poll, the fleet
  # subscriber's notifier (whose Signal/WaitPast handshake the poller
  # race hammers) and the ChangeLog follow wait (an append racing the
  # waiter's registration, two waiters, timeout and stop). The
  # pass-through and batch-equivalence tests share one payload between the
  # publisher, the subscriber and the agent. The shard-shape tests read
  # the series a supervisor's incarnations share while its loop restarts
  # them, and the collector restart tests rewind a stopped pipeline.
  TSAN_LOG="${TSAN_BUILD_DIR:-build-tsan}/ctest-output.log"
  for test_name in StatsStayConsistentUnderIngestLoad \
                   ConcurrentTimeRangeQueriesMatchOracle \
                   GroupCommitSurvivesMidCommitCrashes \
                   ConcurrentFederatedQueriesDuringIngest \
                   TwoShardKillMidStreamBackfillHealsBothShards \
                   FederatedRangeQueryReturnsExactHlcMerge \
                   SingleShardOutageSpoolsReplaysAndServesLabeledPartials \
                   RollingOutagesServeLabeledPartialsUnderConcurrency \
                   TracedEventCrossesEveryPipelineStage \
                   LagDerivationAndFrozenInstance \
                   AuditAlgebra \
                   SpscRing.StressPreservesFifo \
                   ThreadPool.SpscFeedModeDrainsEveryTask \
                   ConcurrentSnapshotSwapsKeepVerdictsOracleExact \
                   ConcurrentDeltasKeepBatchVerdictsOracleExact \
                   ConcurrentRuleMutationsKeepAgentFiltersInStep \
                   FairDrainInterleavesTenantsUnderConcurrency \
                   PublishesEachSequencedBatchAsOneMessage \
                   MetricsRegistry.CallbacksRunOutsideTheRegistryLock \
                   EventStore.QueryFirstAvailableAndPageShareOneSnapshot \
                   SpscRing.ProducerRacesParkingConsumer \
                   SpscRing.ParkedProducerOnFullRingWakesOnPop \
                   SpscRing.CloseWakesParkedConsumerAndProducer \
                   ReliableQueue.LongPollWakesOnSend \
                   ReliableQueue.LongPollWakesOnSweepRevival \
                   FleetSubscriberWake.DeliveryToEitherShardWakesNextBatchFor \
                   FleetSubscriberWake.CloseWakesABlockedNextBatchFor \
                   Poller.NoMissedWakeupRace \
                   RecoveringPassThrough.WhollyFreshBatchIsDeliveredWithTheMessagePayload \
                   RecoveringPassThrough.PartlyStaleDeliveryYieldsExactlyTheFreshEventsInOrder \
                   EventBatch.CopyReadsCorrectlyAfterTheOriginalIsDestroyed \
                   CloudAgentTest.BatchDeliveryMatchesPerEventDelivery \
                   ChangeLogFollow.WaiterWakesAtItsThreshold \
                   ChangeLogFollow.WaiterBelowItsThresholdTimesOut \
                   ChangeLogFollow.StopTokenInterruptsTheWait \
                   ChangeLogFollow.TwoWaitersWakeAtTheirOwnTargets \
                   ChangeLogFollow.AppendRacingRegistrationNeverLosesTheWakeup \
                   CollectorTest.RestartAfterAbandonedReportsDeliversThem \
                   CollectorTest.CleanRestartKeepsItsCursor \
                   MonitorTest.OneAndTwoShardFleetsShareOneShape \
                   FleetTest.SupervisedShardsOnOneRegistryCountTheirOwnCrashes \
                   AggregatorSupervisorTest.StatsAfterACrashAreTheRegistrySeries \
                   ApiEdge.StatsOpRepliesWithFleetPositionAndLastSeq; do
    if ! grep -q "$test_name" "$TSAN_LOG"; then
      echo "FAIL: $test_name did not run in the TSan pass" >&2
      exit 1
    fi
  done
fi

# Smoke-run the observability bench's JSON export. The bench's own exit
# code enforces the <2% tracing-overhead budget, which is only meaningful
# on an uninstrumented build and with full repetitions — here we require
# the run to complete and the JSON to carry its headline metrics.
BENCH_JSON="$(mktemp)"
trap 'rm -f "$BENCH_JSON"' EXIT
"$FIRST_DIR/bench/bench_observability" --quick --json "$BENCH_JSON" || true
for key in rate0_events_per_sec rate100_events_per_sec trace_valid \
           ledger_overhead_pct ledger_balanced; do
  if ! grep -q "\"$key\"" "$BENCH_JSON"; then
    echo "FAIL: bench_observability --json output is missing $key" >&2
    exit 1
  fi
done

if [[ "$BENCH_JSON_OUT" == 1 ]]; then
  # Refresh the checked-in perf baseline. Sanitizer builds distort wall
  # clock but not the virtual-time rates the bench reports; still, prefer
  # the plain build when one exists.
  BENCH_BIN="$FIRST_DIR/bench/bench_throughput"
  [[ -x "build/bench/bench_throughput" ]] && BENCH_BIN="build/bench/bench_throughput"
  "$BENCH_BIN" --json BENCH_throughput.json
  for key in workers_1_drain_rate workers_4_drain_rate speedup_4_workers \
             fanin_4c_workers_1_drain_rate fanin_4c_workers_4_drain_rate \
             aggregator_speedup_4_workers \
             fleet_8c_1_shard_drain_rate fleet_8c_4_shards_drain_rate \
             fleet_speedup_4_shards \
             wire_speedup_decode wire_speedup_encode \
             ingest_drain_v4 ingest_drain_legacy ingest_drain_v4_speedup; do
    if ! grep -q "\"$key\"" BENCH_throughput.json; then
      echo "FAIL: BENCH_throughput.json is missing $key" >&2
      exit 1
    fi
  done
  # The fleet must actually pay for itself: a 4-shard fleet that fails to
  # at least double the single aggregator's 8-collector drain rate means
  # the sharded write path has regressed into cross-shard serialization.
  awk '
    /"fleet_speedup_4_shards"/ {
      match($0, /"fleet_speedup_4_shards":[0-9.eE+-]+/)
      split(substr($0, RSTART, RLENGTH), kv, ":")
      if (kv[2] + 0 < 2.0) {
        printf "FAIL: fleet_speedup_4_shards %.2f < 2.0\n", kv[2] > "/dev/stderr"
        exit 1
      }
      found = 1
    }
    END { if (!found) { print "FAIL: fleet_speedup_4_shards not found" > "/dev/stderr"; exit 1 } }
  ' BENCH_throughput.json
  # Zero-copy wire gates: the flat v4 codec must decode at least 2x faster
  # than the frozen field-wise comparator (wall clock, all fields read),
  # and the 8-collector serial drain at the v4 ingest cost must be at
  # least 1.5x the rate of the same fleet at the field-wise 35us/event
  # cost — otherwise the aggregator has regressed into the decode-bound
  # regime again.
  awk '
    /"wire_speedup_decode"/ {
      match($0, /"wire_speedup_decode":[0-9.eE+-]+/)
      split(substr($0, RSTART, RLENGTH), kv, ":")
      if (kv[2] + 0 < 2.0) {
        printf "FAIL: wire_speedup_decode %.2f < 2.0\n", kv[2] > "/dev/stderr"
        exit 1
      }
      found = 1
    }
    /"ingest_drain_v4_speedup"/ {
      match($0, /"ingest_drain_v4_speedup":[0-9.eE+-]+/)
      split(substr($0, RSTART, RLENGTH), kv, ":")
      if (kv[2] + 0 < 1.5) {
        printf "FAIL: ingest_drain_v4_speedup %.2f < 1.5\n", kv[2] > "/dev/stderr"
        exit 1
      }
      found2 = 1
    }
    END {
      if (!found) { print "FAIL: wire_speedup_decode not found" > "/dev/stderr"; exit 1 }
      if (!found2) { print "FAIL: ingest_drain_v4_speedup not found" > "/dev/stderr"; exit 1 }
    }
  ' BENCH_throughput.json

  # Degraded-mode availability baseline: one shard hard-down must not cost
  # the other shards' answers. bench_failover --json runs only the fleet
  # outage scenario (fast) and reports the fraction of federated fetches
  # that answered — as labeled partial pages — during the outage.
  FAILOVER_BIN="$FIRST_DIR/bench/bench_failover"
  [[ -x "build/bench/bench_failover" ]] && FAILOVER_BIN="build/bench/bench_failover"
  "$FAILOVER_BIN" --json BENCH_failover.json
  for key in degraded_query_availability degraded_labeled_partial_fraction \
             fleet_recovered_full; do
    if ! grep -q "\"$key\"" BENCH_failover.json; then
      echo "FAIL: BENCH_failover.json is missing $key" >&2
      exit 1
    fi
  done
  awk '
    /"degraded_query_availability"/ {
      match($0, /"degraded_query_availability":[0-9.eE+-]+/)
      split(substr($0, RSTART, RLENGTH), kv, ":")
      if (kv[2] + 0 < 0.99) {
        printf "FAIL: degraded_query_availability %.3f < 0.99\n", kv[2] > "/dev/stderr"
        exit 1
      }
      found = 1
    }
    END { if (!found) { print "FAIL: degraded_query_availability not found" > "/dev/stderr"; exit 1 } }
  ' BENCH_failover.json

  # Compiled rule index baseline: the full 1k -> 1M sweep. Two claims are
  # load-bearing: at 100k rules the index must beat the linear glob sweep
  # by at least 10x (in practice it is orders of magnitude), and 1M rules
  # must cost at most 3x the per-event latency of 1k rules — i.e. dispatch
  # is O(matching-rules), not O(rules).
  RULES_BIN="$FIRST_DIR/bench/bench_rules"
  [[ -x "build/bench/bench_rules" ]] && RULES_BIN="build/bench/bench_rules"
  "$RULES_BIN" --json BENCH_rules.json
  for key in rules_1k_ns_per_event rules_10k_ns_per_event \
             rules_100k_ns_per_event rules_1m_ns_per_event \
             index_build_1m_ms linear_100k_ns_per_event \
             rule_index_speedup_100k rule_index_flatness_1m_vs_1k; do
    if ! grep -q "\"$key\"" BENCH_rules.json; then
      echo "FAIL: BENCH_rules.json is missing $key" >&2
      exit 1
    fi
  done
  awk '
    /"rule_index_speedup_100k"/ {
      match($0, /"rule_index_speedup_100k":[0-9.eE+-]+/)
      split(substr($0, RSTART, RLENGTH), kv, ":")
      if (kv[2] + 0 < 10.0) {
        printf "FAIL: rule_index_speedup_100k %.1f < 10.0\n", kv[2] > "/dev/stderr"
        exit 1
      }
      found = 1
    }
    /"rule_index_flatness_1m_vs_1k"/ {
      match($0, /"rule_index_flatness_1m_vs_1k":[0-9.eE+-]+/)
      split(substr($0, RSTART, RLENGTH), kv, ":")
      if (kv[2] + 0 > 3.0) {
        printf "FAIL: rule_index_flatness_1m_vs_1k %.2f > 3.0\n", kv[2] > "/dev/stderr"
        exit 1
      }
      found2 = 1
    }
    END {
      if (!found) { print "FAIL: rule_index_speedup_100k not found" > "/dev/stderr"; exit 1 }
      if (!found2) { print "FAIL: rule_index_flatness_1m_vs_1k not found" > "/dev/stderr"; exit 1 }
    }
  ' BENCH_rules.json

  # Flow-ledger overhead baseline: full-boundary conservation accounting
  # plus per-stage watermarks must stay under 2% of baseline throughput
  # (full repetitions, plain build — the smoke run above only checks that
  # the keys exist). The run must also end with a balanced ledger.
  OBS_BIN="$FIRST_DIR/bench/bench_observability"
  [[ -x "build/bench/bench_observability" ]] && OBS_BIN="build/bench/bench_observability"
  "$OBS_BIN" --json BENCH_observability.json
  for key in ledger_overhead_pct ledger_balanced ledger_boundaries \
             watermark_stages; do
    if ! grep -q "\"$key\"" BENCH_observability.json; then
      echo "FAIL: BENCH_observability.json is missing $key" >&2
      exit 1
    fi
  done
  awk '
    /"ledger_overhead_pct"/ {
      match($0, /"ledger_overhead_pct":[0-9.eE+-]+/)
      split(substr($0, RSTART, RLENGTH), kv, ":")
      if (kv[2] + 0 >= 2.0) {
        printf "FAIL: ledger_overhead_pct %.2f >= 2.0\n", kv[2] > "/dev/stderr"
        exit 1
      }
      found = 1
    }
    /"ledger_balanced"/ {
      match($0, /"ledger_balanced":[0-9.eE+-]+/)
      split(substr($0, RSTART, RLENGTH), kv, ":")
      if (kv[2] + 0 != 1) {
        print "FAIL: ledger run finished imbalanced" > "/dev/stderr"
        exit 1
      }
    }
    END { if (!found) { print "FAIL: ledger_overhead_pct not found" > "/dev/stderr"; exit 1 } }
  ' BENCH_observability.json
fi

echo "check.sh: all gates passed"
