#!/usr/bin/env bash
# Local CI entry point — the same steps .github/workflows/ci.yml runs, for
# machines without a GitHub runner. Usage:
#   ./ci.sh            # tier-1 verify (build + ctest, minus LABELS slow)
#   ./ci.sh sanitize   # ASan/UBSan build + FULL ctest incl. slow (slower)
#   ./ci.sh bench      # quick benches + BENCH_*.json checks + golden traces
#   ./ci.sh perf       # Release build, DES-kernel perf smoke (bench_engine)
#   ./ci.sh slo        # freshness plane only: ctest -L slo + bench_freshness
#   ./ci.sh perfbench  # repository benchmark smoke: perfbench_test + one
#                      # short run per workload, gated on its own checks,
#                      # plus the rubis_zipf allocations-per-request gate
#
# Tests carrying ctest LABELS slow (golden-trace bench replays) are kept
# out of tier-1 to hold its wall-clock; they run in the sanitize and
# bench lanes.
set -euo pipefail
cd "$(dirname "$0")"

jobs=$(nproc 2>/dev/null || echo 2)

if [[ "${1:-}" == "sanitize" ]]; then
  cmake -B build-asan -S . -DRDMAMON_SANITIZE=address,undefined
  cmake --build build-asan -j "$jobs"
  ctest --test-dir build-asan --output-on-failure -j "$jobs"
  # Cross-scheme conformance contract, named so a sanitizer hit in the
  # push/adaptive paths is attributed to the suite that guards them.
  ctest --test-dir build-asan -L conformance --output-on-failure -j "$jobs"
  # Multi-tenant QoS surface (arbiter properties + TenantFault storms),
  # named for the same reason.
  ctest --test-dir build-asan -L qos --output-on-failure -j "$jobs"
elif [[ "${1:-}" == "bench" ]]; then
  cmake -B build -S .
  cmake --build build -j "$jobs" --target \
    bench_fig3_latency bench_fig5_accuracy bench_scale_poll \
    bench_fault_resilience bench_scale_frontends bench_engine bench_verbs \
    bench_qos bench_micro
  # Every bench binary takes the uniform --quick/--seed flags,
  # google-benchmark's bench_micro included.
  ./build/bench/bench_micro --quick --seed 42
  mkdir -p bench-results
  for b in fig3_latency scale_poll fault_resilience scale_frontends engine \
           verbs qos; do
    RDMAMON_BENCH_DIR=bench-results ./build/bench/bench_$b --quick
    python3 -m json.tool "bench-results/BENCH_$b.json" > /dev/null
    echo "BENCH_$b.json: valid"
  done
  # Scale-out acceptance: per-backend probe load flat (+-10%) as the
  # front-end count grows 1 -> 8.
  python3 - <<'EOF'
import json
doc = json.load(open("bench-results/BENCH_scale_frontends.json"))
ratio = doc["headline"]["flatness_ratio"]
print(f"scale-frontends flatness M=1->8: {ratio:.3f}x (acceptance 0.9..1.1)")
assert 0.9 <= ratio <= 1.1, "per-backend probe load not flat in M"
EOF
  # Monitoring-strategy acceptance: at the largest quick-mode N, push must
  # beat pull on freshness-per-fabric-byte at the low change rate, and
  # adaptive must stay within 10% of the better scheme everywhere.
  python3 - <<'EOF'
import json
doc = json.load(open("bench-results/BENCH_scale_poll.json"))
h = doc["push_headline"]
print(f"push vs pull at N={h['n']} low rate: "
      f"{h['push_cost_low_rate']:.1f} vs {h['pull_cost_low_rate']:.1f}")
assert h["push_beats_pull"], "push did not beat pull at low change rate"
print(f"adaptive worst ratio vs better scheme: "
      f"{h['adaptive_worst_ratio']:.3f}x (acceptance <= 1.1)")
assert h["adaptive_worst_ratio"] <= 1.1, "adaptive strayed from better scheme"
EOF
  # Verbs-layer acceptance: per-slot overhead must drop monotonically as
  # the signaling period k grows 1 -> 16 at fixed queue depth, and the
  # shared-context pool must erase the bounded-cache thrash penalty.
  python3 - <<'EOF'
import json
doc = json.load(open("bench-results/BENCH_verbs.json"))
h = doc["headline"]
print(f"cq_mod per-slot overhead at depth {h['depth']}: "
      f"k=1 {h['per_slot_overhead_k1_ns']:.0f}ns -> "
      f"k=16 {h['per_slot_overhead_k16_ns']:.0f}ns "
      f"({h['overhead_drop_factor']:.3f}x)")
assert h["overhead_monotone"], "per-slot overhead not monotone in k"
assert h["per_slot_overhead_k16_ns"] < h["per_slot_overhead_k1_ns"], \
    "k=16 did not beat k=1"
q = doc["qpc_headline"]
print(f"qpc cache at n={q['n']}: unbounded {q['round_unbounded_us']:.1f}us, "
      f"thrash {q['thrash_ratio']:.2f}x, shared {q['shared_ratio']:.3f}x")
assert q["thrash_ratio"] > 1.5, "dedicated contexts did not thrash the cache"
assert q["shared_ratio"] <= 1.15, "shared contexts did not stay near unbounded"
EOF
  # Scale acceptance: the RDMA scatter round on the fast path stays flat
  # (<= 1.25x the N=256 round) out to N=2048 over a bounded NIC cache.
  python3 - <<'EOF'
import json
doc = json.load(open("bench-results/BENCH_scale_poll.json"))
s = doc["scale_headline"]
print(f"scatter round N={s['n_small']} -> N={s['n_large']}: "
      f"{s['round_small_us']:.1f}us -> {s['round_large_us']:.1f}us "
      f"({s['flatness_ratio']:.3f}x, acceptance <= 1.25; dedicated contrast "
      f"{s['round_dedicated_large_us']:.1f}us)")
assert s["flatness_ratio"] <= 1.25, "scatter round cost grew with N"
v = json.load(open("bench-results/BENCH_scale_frontends.json"))
b = v["verbs_2048_headline"]
print(f"verbs fast path at N={b['n']}: polls/backend/s M=1 "
      f"{b['polls_per_backend_sec_m1']:.1f} -> M=4 "
      f"{b['polls_per_backend_sec_m4']:.1f} ({b['flatness_ratio']:.3f}x)")
assert 0.85 <= b["flatness_ratio"] <= 1.15, \
    "per-backend probe load not flat at N=2048 on the fast path"
EOF
  # Multi-tenant acceptance, BOTH directions: the unthrottled hog must
  # breach the view-age SLO (proving the storm bites), and with QoS on
  # the victim must meet it while the hog is pinned to its rate cap.
  python3 - <<'EOF'
import json
doc = json.load(open("bench-results/BENCH_qos.json"))
rows = {r["arm"]: r for r in doc["results"]}
off, on = rows["qos-off"], rows["qos-on"]
slo = doc["slo_target_ms"]
cap = doc["hog_rate_cap_mbps"]
print(f"view-age p99: qos-off {off['view_age_p99_ms']:.1f}ms "
      f"(SLO {slo:.0f}ms, breaches {off['breach_edges']}) -> "
      f"qos-on {on['view_age_p99_ms']:.1f}ms")
assert off["view_age_p99_ms"] > slo, "unthrottled storm did not breach SLO"
assert off["breach_edges"] >= 1, "SLO engine never alarmed under the storm"
assert on["view_age_p99_ms"] <= slo, "QoS failed to protect the view age"
assert on["breach_edges"] == 0, "QoS arm still alarmed"
print(f"hog goodput: {off['hog_goodput_mbps']:.0f} -> "
      f"{on['hog_goodput_mbps']:.0f} MB/s (cap {cap:.0f}, "
      f"throttle {doc['hog_throttle_ratio']:.1f}x)")
assert on["hog_goodput_mbps"] <= cap * 1.2, "hog exceeded its rate cap"
assert doc["hog_throttle_ratio"] >= 5.0, "hog barely throttled"
dropped = sum(t["dropped"] for t in on["tenants"] if t["tenant"] == 9)
assert dropped > 0, "queue cap never dropped the flood"
EOF
  # Golden-trace replays (ctest LABELS slow): quick fig3/fig5/scale_poll/
  # verbs/qos pinned against tests/golden/*.json.
  ctest --test-dir build -L slow --output-on-failure -j "$jobs"
elif [[ "${1:-}" == "slo" ]]; then
  # Freshness-plane smoke: the staleness SLO / flight recorder / alarm-MR
  # surface (ctest LABELS slo) plus the information-age bench. Fast enough
  # to run on every edit of src/telemetry/ or src/monitor/alarm*.
  cmake -B build -S .
  cmake --build build -j "$jobs" --target test_slo bench_freshness
  mkdir -p build/flight-dumps bench-results
  RDMAMON_FLIGHT_DIR=build/flight-dumps \
    ctest --test-dir build -L slo --output-on-failure -j "$jobs"
  RDMAMON_BENCH_DIR=bench-results ./build/bench/bench_freshness --quick
  python3 - <<'EOF'
import json
doc = json.load(open("bench-results/BENCH_freshness.json"))
oh = doc["recorder_overhead"]
print(f"recorder overhead over {oh['reps']} interleaved reps: median "
      f"{oh['recorder_delta_median_pct']:.2f}% [IQR "
      f"{oh['recorder_delta_q1_pct']:.2f} .. "
      f"{oh['recorder_delta_q3_pct']:.2f}%] -> {oh['recorder_verdict']} "
      f"(budget <= {oh['recorder_budget_pct']:.0f}% of wall)")
assert oh["ages_match"], "recorder toggle changed the simulated ages"
for row in doc["results"]:
    assert row["age_p99_us"] >= row["age_p50_us"] > 0, row
print("BENCH_freshness.json: valid")
EOF
elif [[ "${1:-}" == "perfbench" ]]; then
  # Repository benchmark smoke: build the perfbench package, run its own
  # tests, then one short untraced run per workload. A run whose output
  # checks or cross-process digest check fail reports correct: false
  # (and exits non-zero); a workload with failed operations fails too.
  cmake -S perfbench -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release
  cmake --build .bench_build/perfbench -j "$jobs"
  ctest --test-dir .bench_build/perfbench --output-on-failure
  mkdir -p bench-results
  for w in rubis_zipf monitor_pull monitor_push; do
    python3 perfbench/run.py --workload "$w" --seed 2 --seconds 1 --trace 0 \
      | tail -n 1 > "bench-results/perfbench_$w.json"
    python3 - "bench-results/perfbench_$w.json" <<'EOF'
import json
import sys
doc = json.load(open(sys.argv[1]))
print(f"{sys.argv[1]}: correct={doc['correct']} attempted={doc['attempted']} "
      f"failed={doc['failed']}")
assert doc["correct"], "perfbench output or digest check failed"
assert doc["failed"] == 0, "perfbench workload had failed operations"
EOF
  done
  # Allocation gate of the served-request path: one traced rubis_zipf run
  # must stay at or under 1.2 heap allocations per served request
  # (measured 1.12: the dispatcher's pending-table node plus the
  # dispatch-log deque's chunks; 54 before socket messages rode pooled
  # fabric slots with inline payloads).
  python3 perfbench/run.py --workload rubis_zipf --seed 1 --seconds 1 \
    --trace 1 | tail -n 1 > bench-results/perfbench_rubis_zipf_traced.json
  python3 - bench-results/perfbench_rubis_zipf_traced.json <<'EOF'
import json
import sys
doc = json.load(open(sys.argv[1]))
per_op = doc["metrics"]["alloc.per_op"]["value"]
print(f"rubis_zipf alloc.per_op: {per_op:.2f} (ceiling 1.2)")
assert doc["correct"], "perfbench output or digest check failed"
assert per_op <= 1.2, "served-request path allocates above its ceiling"
EOF
elif [[ "${1:-}" == "perf" ]]; then
  # DES-kernel perf smoke: Release build, quick bench_engine run. The
  # binary itself exits non-zero if the timer-wheel kernel heap-allocates
  # during a steady-state recycling workload; the JSON check below keeps
  # the report parseable for the artifact consumers.
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "$jobs" --target bench_engine
  mkdir -p bench-results
  RDMAMON_BENCH_DIR=bench-results ./build-release/bench/bench_engine --quick
  python3 - <<'EOF'
import json
doc = json.load(open("bench-results/BENCH_engine.json"))
assert doc["zero_steady_state_alloc"], "steady-state allocation detected"
for row in doc["results"]:
    assert row["events_per_sec"] > 0, row
# The scatter-shaped workload (N=4096 standing completion+deadline pairs,
# pop/cancel/re-arm) must hold ~10^7 events/s on the wheel kernel.
fabric = [r for r in doc["results"]
          if r["workload"] == "fabric_round" and r["kernel"] == "timer-wheel"]
assert fabric and fabric[0]["events_per_sec"] >= 1e7, fabric
print("BENCH_engine.json: valid, zero steady-state allocations, "
      f"schedule_cancel speedup {doc['speedup_schedule_cancel']:.2f}x, "
      f"fabric_round {fabric[0]['events_per_sec'] / 1e6:.1f} Mops/s "
      f"({doc['speedup_fabric_round']:.2f}x vs seed heap)")
EOF
else
  cmake -B build -S .
  cmake --build build -j "$jobs"
  # Flight-recorder post-mortems (crash dumps, SLO breach dumps) land here;
  # on a red run the dumps are the first thing to read (tools/flightdump.py).
  mkdir -p build/flight-dumps
  RDMAMON_FLIGHT_DIR=build/flight-dumps \
    ctest --test-dir build --output-on-failure -j "$jobs" -LE slow
  # Cross-scheme conformance contract, named for an explicit pass line.
  ctest --test-dir build -L conformance --output-on-failure -j "$jobs"
fi
