#!/usr/bin/env bash
# CI entry point: build, run the tier-1 test suite, then exercise one bench
# in --export mode and sanity-check the emitted vsg-metrics-v1 snapshot.
#
#   $ scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Docs stage (docs/WIRE.md and friends): every intra-repo markdown link
# must resolve. Runs first — it needs no build.
scripts/check_links.sh

# Tier-1 verify line (ROADMAP.md).
cmake -B build -S . && cmake --build build -j && (cd build && ctest --output-on-failure -j)

# Observability smoke: the throughput bench must emit a parseable snapshot.
./build/bench/bench_throughput --export build/BENCH_throughput.json
test -s build/BENCH_throughput.json
grep -q '"schema": "vsg-metrics-v1"' build/BENCH_throughput.json
grep -q '"net.packets_sent"' build/BENCH_throughput.json
grep -q '"ring.formation_rounds"' build/BENCH_throughput.json
grep -q '"to.brcv_latency.all"' build/BENCH_throughput.json

# Wire-compat gate (docs/WIRE.md, "Wire-compat gate"): the golden frame
# fixtures committed under tests/wire/ were encoded when each version
# shipped. Every build must keep decoding the v3 one — a layout change that
# breaks shipped bytes fails here — and must refuse the retired v1/v2
# fixtures and the unknown-version fixture, never read them as v3.
./build/tools/chaos_runner --decode-frame tests/wire/golden_v3.frame
for f in tests/wire/golden_v1.frame tests/wire/golden_v2.frame \
         tests/wire/unknown_version.frame; do
  if ./build/tools/chaos_runner --decode-frame "$f"; then
    echo "check.sh: $f was accepted" >&2
    exit 1
  fi
done

# Chaos smoke campaign (docs/CHAOS.md): 200 fixed seeds under the full
# oracle set must run clean, and the campaign metrics must export.
./build/tools/chaos_runner --seeds 200 --smoke --export build/CHAOS_smoke.json \
    | tee build/chaos_smoke_jobs1.out
grep -q '"schema": "vsg-metrics-v1"' build/CHAOS_smoke.json
grep -q '"chaos.runs": 200' build/CHAOS_smoke.json
grep -q '"chaos.failures": 0' build/CHAOS_smoke.json

# Parallel determinism gate (docs/CHAOS.md, "Parallel execution"): the same
# campaign fanned out across 4 worker threads must produce a bit-identical
# campaign fingerprint (order-sensitive fold over every seed's verdict and
# delivery fingerprint) — Worlds share no mutable state, so jobs must only
# change wall-clock, never results.
./build/tools/chaos_runner --seeds 200 --smoke --jobs 4 \
    | tee build/chaos_smoke_jobs4.out
fp1=$(grep -o 'campaign fingerprint [0-9a-f]*' build/chaos_smoke_jobs1.out)
fp4=$(grep -o 'campaign fingerprint [0-9a-f]*' build/chaos_smoke_jobs4.out)
test -n "$fp1"
if [ "$fp1" != "$fp4" ]; then
  echo "check.sh: campaign fingerprint differs across --jobs ($fp1 vs $fp4)" >&2
  exit 1
fi

# Sharding equivalence gate (docs/SHARDING.md, "K=1 is the classic
# harness"): shards=1 must stay bit-identical to the pre-shard harness.
# The smoke fingerprint and the headline protocol counters are pinned to
# the values the single-stack harness produced; any drift here means the
# default topology is no longer the same system.
if [ "$fp1" != "campaign fingerprint 8bc76ebef3d2f2e6" ]; then
  echo "check.sh: K=1 smoke fingerprint drifted from the single-stack baseline ($fp1)" >&2
  exit 1
fi
grep -q '"net.packets_sent": 247105' build/CHAOS_smoke.json
grep -q '"ring.entries_delivered": 46179' build/CHAOS_smoke.json
grep -q '"ring.token_rotations": 267240' build/CHAOS_smoke.json
# Labels copied into the proof-only buildorder history. Copies happen once
# per view exit (never per message), so the count is deterministic and
# bounded by views x order depth.
grep -q '"to.history_snapshot_labels": 33013' build/CHAOS_smoke.json

# Sharded smoke (docs/SHARDING.md): a four-shard campaign with correlated
# failure-domain faults must run clean under the per-shard oracle set, and
# the checked-in sharded scenario must replay through both replayers.
./build/tools/chaos_runner --seeds 50 --smoke --shards 4 --domains 2
./build/tools/chaos_runner --replay examples/scenarios/sharded_two_rings.scn
./build/examples/scenario_runner examples/scenarios/sharded_two_rings.scn >/dev/null

# Cross-shard consistency demo (docs/SHARDING.md, "The anomaly"): phase 1
# must FIND the crafted cross-shard seq-cst violation, phase 2 (per-shard
# barriers) must come back clean — the demo exits 0 only when both hold.
./build/examples/sharded_kv_demo >/dev/null

# Decode-shim gate: the optional-returning decode shims are test-only.
# Production code (src/, bench/, examples/, tools/) must use the *_ex API;
# only the defining headers may still spell the shim names.
if grep -rnE --include='*.cpp' --include='*.hpp' \
    '(^|[^_[:alnum:]])decode_(packet|message)\(' src bench examples tools \
    | grep -v 'src/membership/messages' | grep -v 'src/vstoto/wire'; then
  echo "check.sh: non-test caller of a test-only decode shim (use decode_*_ex)" >&2
  exit 1
fi

# Exchange cross-check (docs/WIRE.md, "Digest/delta state exchange"): the
# same chaos schedules on identical v3 frames under the paper's Figure 8
# full-summary exchange and under digest/delta must agree on every oracle
# verdict and deliver the same value multisets.
./build/tools/chaos_runner --cross-check --seeds 25 --smoke

# Minimized regression scenarios from past campaign finds must replay clean.
for scn in tests/scenarios/*.scn; do
  ./build/tools/chaos_runner --replay "$scn"
done

# Tracing smoke (docs/OBSERVABILITY.md, "Tracing"): replay a fixed-seed
# scenario with the span tracer on and export a Chrome trace. The schema
# itself (matched b/e pairs, monotone per-track timestamps) is validated by
# obs::validate_chrome_trace in tests/obs_span_test.cpp; here we check the
# file materializes with both span families and the Perfetto metadata.
./build/tools/chaos_runner --replay tests/scenarios/chaos_seed248_stuck_proposal.scn \
    --trace-out build/replay.trace.json
test -s build/replay.trace.json
grep -q '"traceEvents"' build/replay.trace.json
grep -q '"process_name"' build/replay.trace.json
grep -q '"tobrcv"' build/replay.trace.json
grep -q '"view.state_exchange"' build/replay.trace.json

# Timeline smoke (docs/OBSERVABILITY.md, "Timelines"): a 50-seed smoke
# campaign with per-seed timelines — every emitted file must validate as
# vsg-timeseries-v1, and sampling must not perturb the run (the campaign
# still exits clean).
rm -rf build/timelines && mkdir -p build/timelines
./build/tools/chaos_runner --seeds 50 --smoke --timeline-out build/timelines
./build/tools/vsg_report --validate build/timelines/timeline_seed*.json >/dev/null
test "$(ls build/timelines/timeline_seed*.json | wc -l)" -eq 50

# Timeline determinism pin: a fixed-seed K=1 replay's timeline is hashed
# with the canonical vsg-timeseries-v1 fingerprint. Sampler reads never
# touch the RNG or the schedule, so this value only moves when the metric
# set, the protocol or the replayed scenario changes — update it alongside
# the campaign fingerprint above when that is intentional.
./build/tools/chaos_runner --replay tests/scenarios/chaos_seed248_stuck_proposal.scn \
    --timeline-out build/replay_timeline.json
tfp=$(./build/tools/vsg_report --fingerprint build/replay_timeline.json | cut -d' ' -f1)
if [ "$tfp" != "b5b088841c8b662b" ]; then
  echo "check.sh: fixed-seed timeline fingerprint drifted ($tfp)" >&2
  exit 1
fi

# The write_timeline contract: a churned sharded bench's final aggregate
# sample must equal its end-of-run export (modulo wall exclusions), and the
# report must render as self-contained HTML.
./build/bench/bench_throughput --churn --shards 4 \
    --timeline-out build/TL_churn.json --export build/BENCH_churn.json >/dev/null
./build/tools/vsg_report --check-final build/BENCH_churn.json build/TL_churn.json
./build/tools/vsg_report build/TL_churn.json --html build/TL_churn.html >/dev/null
test -s build/TL_churn.html
grep -q '<svg' build/TL_churn.html

# Health watchdogs (docs/CHAOS.md, "Health oracle"): slowing the ring past
# the stall bound must trip token_stall under --health-oracle, the failing
# seed must shrink with the rule preserved, and the v2 manifest must index
# the timeline artifact next to the trace.
rm -rf build/stall_repro && mkdir -p build/stall_repro
if ./build/tools/chaos_runner --seeds 1 --first-seed 5 --smoke --pi 1500 \
    --health-oracle --repro-dir build/stall_repro >/dev/null; then
  echo "check.sh: injected ring stall was NOT flagged by the health oracle" >&2
  exit 1
fi
grep -q '"vsg-repro-manifest-v2"' build/stall_repro/repro_manifest.json
grep -q 'token_stall' build/stall_repro/repro_manifest.json
grep -q '"timeline": "chaos_seed5_timeline.json"' build/stall_repro/repro_manifest.json
./build/tools/vsg_report --validate build/stall_repro/chaos_seed5_timeline.json >/dev/null
./build/tools/vsg_report build/stall_repro/chaos_seed5_timeline.json \
    | grep -q 'token_stall'
# Shrink preserved the rule: replaying the minimized repro under the same
# injection flags still stalls. (--pi is invocation config, not pinned in
# the scenario, so it must be passed again — like --corrupt.)
if ./build/tools/chaos_runner --replay build/stall_repro/chaos_seed5.scn \
    --pi 1500 --health-oracle >/dev/null; then
  echo "check.sh: shrunk stall repro no longer trips token_stall" >&2
  exit 1
fi

# The injected-fault demo: with the historical decode bug re-enabled, the
# same oracles must catch it (exit 1) on its minimized repro (seed 138,
# minimized on v3 bytes).
if ./build/tools/chaos_runner --replay tests/scenarios/chaos_seed138_unchecked_decode.scn \
    --inject-unchecked-decode >/dev/null; then
  echo "check.sh: injected decode fault was NOT caught (seed 138)" >&2
  exit 1
fi

# Flow-control gate (docs/FLOWCONTROL.md): a churned rate sweep past ring
# capacity under a byte budget + shed admission gate must log ZERO
# backlog_growth health events — the gate caps the backlog by
# construction, so the watchdog's monotone-growth streak can never form.
./build/bench/bench_throughput --rate 100,200,400 --churn \
    --budget 64 --gate shed --backlog 8 | tee build/fc_rate.out
grep -q '^backlog_growth events: 0$' build/fc_rate.out
# Golden render: vsg_report over the committed flow-controlled timeline
# must reproduce the committed report byte-for-byte, including the
# to.admission_wait percentiles and the sends_shed flag. To regenerate
# after an intentional metric/render change:
#   ./build/bench/bench_throughput --rate 400 --churn --budget 64 \
#       --gate shed --backlog 8 --timeline-out tests/golden/flowcontrol_timeline.json
#   ./build/tools/vsg_report tests/golden/flowcontrol_timeline.json \
#       > tests/golden/flowcontrol_report.txt
./build/tools/vsg_report tests/golden/flowcontrol_timeline.json > build/fc_report.out
diff -u tests/golden/flowcontrol_report.txt build/fc_report.out
grep -q 'to.admission_wait' build/fc_report.out
grep -q 'SHED at the admission gate' build/fc_report.out
# Budgeted chaos smoke: 50 seeds under a boarding budget (+lanes) must run
# clean — budget-found repros pinning `config budget` are unit-tested in
# tests/chaos_test.cpp.
./build/tools/chaos_runner --seeds 50 --smoke --budget 256

# Sanitizer pass (docs/DATAPLANE.md): the zero-copy plane shares one
# allocation across layers and holds slices past their parent Buffer, so the
# whole suite plus a chaos smoke runs again under ASan + UBSan. Halt on the
# first report (-fno-sanitize-recover=all makes any finding fatal).
cmake -B build-asan -S . -DVSG_SANITIZE=ON
cmake --build build-asan -j
(cd build-asan && ctest --output-on-failure -j)
# The varint fuzz suite (random byte soup, truncations, overlong forms) is
# where an out-of-bounds read in the LEB128 decoder would surface; run it
# by name so a filter rename cannot silently drop it from the ASan pass
# (gtest exits 0 on an empty filter, hence the passed-count grep).
./build-asan/tests/util_test --gtest_filter='VarintFuzz.*' | grep -q '^\[  PASSED  \] [1-9]'
./build-asan/tools/chaos_runner --seeds 200 --smoke
# Multi-job under ASan: the executor's thread pool plus per-World registries
# must stay clean with sanitizers watching the shared globals.
./build-asan/tools/chaos_runner --seeds 200 --smoke --jobs 4

# Optional TSan pass (VSG_CHECK_TSAN=1): a third full build is expensive, so
# it is opt-in. TSan is the authoritative check on the three cross-World
# globals (thread_local decode flag, atomic log level, atomic storage uid) —
# run the suite plus a multi-job smoke under it.
if [ "${VSG_CHECK_TSAN:-0}" = "1" ]; then
  cmake -B build-tsan -S . -DVSG_TSAN=ON
  cmake --build build-tsan -j
  (cd build-tsan && ctest --output-on-failure -j)
  ./build-tsan/tools/chaos_runner --seeds 200 --smoke --jobs 4
fi

echo "check.sh: all green"
