#!/usr/bin/env bash
# Tier-1 verification: format, lints, release build, full test suite.
# Everything here must pass before a change lands.
set -euo pipefail
cd "$(dirname "$0")/.."

echo '== cargo fmt --check'
cargo fmt --all -- --check
echo '== cargo clippy (-D warnings)'
cargo clippy --workspace --all-targets -- -D warnings
echo '== cargo build --release'
cargo build --release --workspace
echo '== cargo test -q'
cargo test -q
echo '== perfbench self-test (its workloads and digests against the workspace crates)'
cargo test -q --offline --manifest-path perfbench/Cargo.toml
echo '== goldens under release optimizations (the build perfbench measures)'
cargo test --release -q -p scalesim-experiments --lib golden
echo '== chaos CLI smoke (env-driven faults + budget must exit 0)'
SCALESIM_CHAOS='gc-stall=5,gc-stall-factor=0.05' \
SCALESIM_MAX_EVENTS=50000000 \
    cargo run --release -q -p scalesim-experiments -- \
    fig1d --scale 0.02 --threads 4,8 > /dev/null
echo '== quarantine CLI smoke (panicking runs must yield quar rows, exit 2, repro file)'
rm -rf target/ci-quar
rc=0
SCALESIM_CHAOS='panic-at=2000' \
    cargo run --release -q -p scalesim-experiments -- \
    workdist --scale 0.02 --threads 4 --out target/ci-quar > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "expected degraded exit 2, got $rc"; exit 1; }
repro=$(ls target/ci-quar/repro-*.json 2>/dev/null | head -1 || true)
[ -n "$repro" ] || { echo "no repro file written"; exit 1; }
echo '== shrinker repro smoke (repro file must re-fail, exit 0)'
cargo run --release -q -p scalesim-experiments -- repro "$repro" > /dev/null 2>&1
echo '== resume smoke (kill-free resume must reproduce identical tables)'
rm -rf target/ci-resume
cargo run --release -q -p scalesim-experiments -- \
    fig1d --scale 0.02 --threads 4,8 \
    --out target/ci-resume/a --checkpoint target/ci-resume/ckpt > /dev/null
cargo run --release -q -p scalesim-experiments -- \
    fig1d --scale 0.02 --threads 4,8 \
    --out target/ci-resume/b --checkpoint target/ci-resume/ckpt --resume \
    > target/ci-resume/resume.out
# Every record must replay: a reader that rejected them all would
# re-simulate and still produce identical tables.
grep -q 'resumed 2 run(s) .* 0 record(s) skipped' target/ci-resume/resume.out \
    || { echo "fig1d resume did not replay every record"; cat target/ci-resume/resume.out; exit 1; }
for csv in target/ci-resume/a/*.csv; do
    diff "$csv" "target/ci-resume/b/$(basename "$csv")"
done
# Manifests must match too, once the host-wall field is stripped.
sed 's/"host_ns":[0-9]*/"host_ns":0/' target/ci-resume/a/manifest.jsonl > target/ci-resume/a.norm
sed 's/"host_ns":[0-9]*/"host_ns":0/' target/ci-resume/b/manifest.jsonl > target/ci-resume/b.norm
diff target/ci-resume/a.norm target/ci-resume/b.norm
echo '== poisoned resume smoke (one non-UTF-8 byte must cost one record, not the store)'
rm -rf target/ci-resume/poison target/ci-resume/c
cp -r target/ci-resume/ckpt target/ci-resume/poison
# 0xFF is never valid UTF-8; write it 200 bytes into the second record.
off=$(( $(head -n 1 target/ci-resume/poison/seg-00000.jsonl | wc -c) + 200 ))
printf '\377' | dd of=target/ci-resume/poison/seg-00000.jsonl bs=1 seek="$off" conv=notrunc status=none
cargo run --release -q -p scalesim-experiments -- \
    fig1d --scale 0.02 --threads 4,8 \
    --out target/ci-resume/c --checkpoint target/ci-resume/poison --resume \
    > target/ci-resume/poison.out
grep -q 'resumed 1 run(s) .* 1 record(s) skipped' target/ci-resume/poison.out \
    || { echo "poisoned resume did not skip exactly one record"; cat target/ci-resume/poison.out; exit 1; }
for csv in target/ci-resume/a/*.csv; do
    diff "$csv" "target/ci-resume/c/$(basename "$csv")"
done
sed 's/"host_ns":[0-9]*/"host_ns":0/' target/ci-resume/c/manifest.jsonl > target/ci-resume/c.norm
diff target/ci-resume/a.norm target/ci-resume/c.norm
# The re-run record went to a segment of its own and the bad line was
# not rewritten: a second resume loads both runs and skips it again.
cargo run --release -q -p scalesim-experiments -- \
    fig1d --scale 0.02 --threads 4,8 \
    --checkpoint target/ci-resume/poison --resume > target/ci-resume/poison2.out
grep -q 'resumed 2 run(s) .* 1 record(s) skipped' target/ci-resume/poison2.out \
    || { echo "second poisoned resume lost a record"; cat target/ci-resume/poison2.out; exit 1; }
echo '== no-memo resume smoke (a checkpoint must persist runs with the memo off)'
rm -rf target/ci-resume/nomemo
SCALESIM_NO_MEMO=1 cargo run --release -q -p scalesim-experiments -- \
    fig1d --scale 0.02 --threads 4,8 --checkpoint target/ci-resume/nomemo > /dev/null
SCALESIM_NO_MEMO=1 cargo run --release -q -p scalesim-experiments -- \
    fig1d --scale 0.02 --threads 4,8 --checkpoint target/ci-resume/nomemo --resume \
    > target/ci-resume/nomemo.out
grep -q 'resumed 2 run(s)' target/ci-resume/nomemo.out \
    || { echo "no-memo checkpoint did not persist its runs"; cat target/ci-resume/nomemo.out; exit 1; }
echo '== traced resume smoke (a traced ext-locks resume must reproduce identical tables)'
rm -rf target/ci-resume-traced
mkdir -p target/ci-resume-traced
SCALESIM_TRACE=target/ci-resume-traced/t.json \
    cargo run --release -q -p scalesim-experiments -- \
    ext-locks --scale 0.02 --threads 4 \
    --out target/ci-resume-traced/a --checkpoint target/ci-resume-traced/ckpt > /dev/null \
    2> target/ci-resume-traced/a.err
SCALESIM_TRACE=target/ci-resume-traced/t.json \
    cargo run --release -q -p scalesim-experiments -- \
    ext-locks --scale 0.02 --threads 4 \
    --out target/ci-resume-traced/b --checkpoint target/ci-resume-traced/ckpt --resume \
    > target/ci-resume-traced/resume.out 2> target/ci-resume-traced/b.err
# Sweep workers export to the one SCALESIM_TRACE path at once; every
# export must land.
if grep -h 'failed to write trace' target/ci-resume-traced/a.err target/ci-resume-traced/b.err; then
    echo "a traced run failed to export its trace"; exit 1
fi
grep -q 'resumed 18 run(s) .* 0 record(s) skipped' target/ci-resume-traced/resume.out \
    || { echo "traced resume did not replay every record"; cat target/ci-resume-traced/resume.out; exit 1; }
for csv in target/ci-resume-traced/a/*.csv; do
    diff "$csv" "target/ci-resume-traced/b/$(basename "$csv")"
done
sed 's/"host_ns":[0-9]*/"host_ns":0/' target/ci-resume-traced/a/manifest.jsonl \
    > target/ci-resume-traced/a.norm
sed 's/"host_ns":[0-9]*/"host_ns":0/' target/ci-resume-traced/b/manifest.jsonl \
    > target/ci-resume-traced/b.norm
diff target/ci-resume-traced/a.norm target/ci-resume-traced/b.norm
# Resumed runs must carry the timelines they were recorded with.
if grep -q '"trace_events":0' target/ci-resume-traced/b/manifest.jsonl; then
    echo "a resumed traced run lost its timeline"; exit 1
fi
# The store keeps each timeline as its packed bytes in base64 (~10 B per
# event; one JSON array per event took ~30).
events=$(grep -o '"trace_events":[0-9]*' target/ci-resume-traced/a/manifest.jsonl \
    | awk -F: '{s += $2} END {print s + 0}')
bytes=$(cat target/ci-resume-traced/ckpt/*.jsonl | wc -c)
[ "$events" -gt 0 ] && [ "$bytes" -le $(( 14 * events )) ] \
    || { echo "traced store takes $bytes B for $events timeline events (limit 14 B/event)"; exit 1; }
echo '== audit smoke (clean pinned runs must audit clean, exit 0)'
rm -rf target/ci-audit
cargo run --release -q -p scalesim-experiments -- audit --out target/ci-audit > /dev/null
echo '== audit chaos smoke (injected faults must be expected findings, exit 2, repro file)'
rc=0
SCALESIM_CHAOS='drop-wakeup=64' \
    cargo run --release -q -p scalesim-experiments -- \
    audit --out target/ci-audit > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "expected audit exit 2, got $rc"; exit 1; }
arepro=$(ls target/ci-audit/audit-*.json 2>/dev/null | head -1 || true)
[ -n "$arepro" ] || { echo "no audit repro file written"; exit 1; }
echo '== audit repro smoke (audit-*.json must round-trip through repro and re-fail, exit 0)'
cargo run --release -q -p scalesim-experiments -- repro "$arepro" > /dev/null 2>&1
echo '== campaign smoke (2-worker campaign must merge byte-identical to a single run)'
rm -rf target/ci-campaign
cargo run --release -q -p scalesim-experiments -- \
    scaletable --scale 0.02 --threads 4,8 \
    --out target/ci-campaign/single > /dev/null
cargo run --release -q -p scalesim-experiments -- \
    campaign scaletable --scale 0.02 --threads 4,8 \
    --dir target/ci-campaign/dir --workers 2 \
    --out target/ci-campaign/merged > /dev/null
diff target/ci-campaign/single/scaletable.csv target/ci-campaign/merged/scaletable.csv
# The merged manifest comes pre-zeroed; strip the single run's host-wall field.
sed 's/"host_ns":[0-9]*/"host_ns":0/' target/ci-campaign/single/manifest.jsonl \
    > target/ci-campaign/single.norm
diff target/ci-campaign/single.norm target/ci-campaign/merged/manifest.jsonl
echo '== campaign re-run smoke (a second run over the same directory restores every unit)'
cargo run --release -q -p scalesim-experiments -- \
    campaign scaletable --scale 0.02 --threads 4,8 \
    --dir target/ci-campaign/dir --workers 2 \
    --out target/ci-campaign/rerun > target/ci-campaign/rerun.log
grep -Eq 'campaign: ([0-9]+) unit\(s\): \1 restored from segments, 0 left to the sweep' \
    target/ci-campaign/rerun.log \
    || { echo "re-run left units to the sweep:"; cat target/ci-campaign/rerun.log; exit 1; }
diff target/ci-campaign/merged/scaletable.csv target/ci-campaign/rerun/scaletable.csv
diff target/ci-campaign/merged/manifest.jsonl target/ci-campaign/rerun/manifest.jsonl
echo '== campaign analyze smoke (a campaign finishes like a single run: same analytics and manifest)'
cargo run --release -q -p scalesim-experiments -- \
    scaletable --scale 0.02 --threads 4,8 --analyze \
    --out target/ci-campaign/analyze-single > /dev/null
cargo run --release -q -p scalesim-experiments -- \
    campaign scaletable --scale 0.02 --threads 4,8 --analyze \
    --dir target/ci-campaign/analyze-dir --workers 2 \
    --out target/ci-campaign/analyze-merged > /dev/null
cmp target/ci-campaign/analyze-single/analytics.json target/ci-campaign/analyze-merged/analytics.json
sed 's/"host_ns":[0-9]*/"host_ns":0/' target/ci-campaign/analyze-single/manifest.jsonl \
    > target/ci-campaign/analyze-single.norm
diff target/ci-campaign/analyze-single.norm target/ci-campaign/analyze-merged/manifest.jsonl
echo '== variant campaign smoke (abl-sched must merge byte-identical to a single run)'
cargo run --release -q -p scalesim-experiments -- \
    abl-sched --scale 0.02 --threads 4,8 \
    --out target/ci-campaign/abl-single > /dev/null
cargo run --release -q -p scalesim-experiments -- \
    campaign abl-sched --scale 0.02 --threads 4,8 \
    --dir target/ci-campaign/abl-dir --workers 2 \
    --out target/ci-campaign/abl-merged > /dev/null
diff target/ci-campaign/abl-single/abl_sched.csv target/ci-campaign/abl-merged/abl_sched.csv
sed 's/"host_ns":[0-9]*/"host_ns":0/' target/ci-campaign/abl-single/manifest.jsonl \
    > target/ci-campaign/abl-single.norm
diff target/ci-campaign/abl-single.norm target/ci-campaign/abl-merged/manifest.jsonl
echo '== campaign degraded smoke (panicking units must quarantine, exit 2)'
rc=0
SCALESIM_CHAOS='panic-at=2000' \
    cargo run --release -q -p scalesim-experiments -- \
    campaign scaletable --scale 0.02 --threads 4 \
    --dir target/ci-campaign/chaos --workers 2 \
    --out target/ci-campaign/chaos-out > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "expected degraded campaign exit 2, got $rc"; exit 1; }
echo '== watchdog campaign smoke (livelocked units must quarantine in a campaign as in a single run)'
rm -rf target/ci-watchdog
rc=0
SCALESIM_CHAOS='drop-wakeup=32' SCALESIM_MONITORS=0 \
SCALESIM_WATCHDOG_MS=200 SCALESIM_MAX_EVENTS=20000000 \
    cargo run --release -q -p scalesim-experiments -- \
    scaletable --scale 0.02 --threads 4 \
    --out target/ci-watchdog/single > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "expected degraded watchdog run exit 2, got $rc"; exit 1; }
rc=0
SCALESIM_CHAOS='drop-wakeup=32' SCALESIM_MONITORS=0 \
SCALESIM_WATCHDOG_MS=200 SCALESIM_MAX_EVENTS=20000000 \
    cargo run --release -q -p scalesim-experiments -- \
    campaign scaletable --scale 0.02 --threads 4 \
    --dir target/ci-watchdog/dir --workers 2 \
    --out target/ci-watchdog/merged > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "expected degraded watchdog campaign exit 2, got $rc"; exit 1; }
rows=$(tail -n +2 target/ci-watchdog/merged/scaletable.csv | wc -l)
quar=$(grep -c '(quar)' target/ci-watchdog/merged/scaletable.csv || true)
[ "$rows" -gt 0 ] && [ "$rows" -eq "$quar" ] \
    || { echo "expected every watchdog row quarantined, got $quar of $rows"; exit 1; }
diff target/ci-watchdog/single/scaletable.csv target/ci-watchdog/merged/scaletable.csv
sed 's/"host_ns":[0-9]*/"host_ns":0/' target/ci-watchdog/single/manifest.jsonl \
    > target/ci-watchdog/single.norm
diff target/ci-watchdog/single.norm target/ci-watchdog/merged/manifest.jsonl
echo '== analyze smoke (analytics.json must validate, re-derive byte-identical, stay stable)'
rm -rf target/ci-analyze
cargo run --release -q -p scalesim-experiments -- \
    scaletable --scale 0.02 --threads 4,8 \
    --out target/ci-analyze/a --checkpoint target/ci-analyze/ckpt \
    --analyze > /dev/null
cargo run --release -q -p scalesim-experiments -- \
    analyze --scale 0.02 --threads 4,8 \
    --dir target/ci-analyze/ckpt --out target/ci-analyze/b > /dev/null
# Re-deriving from the checkpoint store must reproduce the exact bytes.
cmp target/ci-analyze/a/analytics.json target/ci-analyze/b/analytics.json
cargo run --release -q -p scalesim-experiments --bin trace_check -- \
    --analytics target/ci-analyze/a/analytics.json
# The sweep manifest must cross-link the artifact it was emitted with.
grep -q '"analytics":"analytics.json"' target/ci-analyze/a/manifest.jsonl
echo '== server smoke (ext-server artifact must run clean, manifest must carry latency/policy)'
rm -rf target/ci-server
cargo run --release -q -p scalesim-experiments -- \
    ext-server --scale 0.02 --threads 4 --out target/ci-server > /dev/null
grep -q '"policy":"no-fault"' target/ci-server/manifest.jsonl
grep -q '"lat_p50_ns":' target/ci-server/manifest.jsonl
grep -q '"lat_p999_ns":' target/ci-server/manifest.jsonl
grep -q '"degraded":false' target/ci-server/manifest.jsonl
echo '== server degraded smoke (forced degraded mode must surface as exit 2)'
rc=0
SCALESIM_SERVER_DEGRADE=1 \
    cargo run --release -q -p scalesim-experiments -- \
    ext-server --scale 0.02 --threads 4 --out target/ci-server-deg > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "expected degraded server exit 2, got $rc"; exit 1; }
grep -q '"degraded":true' target/ci-server-deg/manifest.jsonl
echo '== server truncation smoke (an event budget must truncate every server run, exit 2)'
rm -rf target/ci-server-trunc
rc=0
SCALESIM_MAX_EVENTS=20000 \
    cargo run --release -q -p scalesim-experiments -- \
    ext-server --scale 0.02 --threads 4 --out target/ci-server-trunc > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "expected truncated server exit 2, got $rc"; exit 1; }
rows=$(tail -n +2 target/ci-server-trunc/ext_server.csv | wc -l)
trunc=$(grep -c ',trunc$' target/ci-server-trunc/ext_server.csv || true)
[ "$rows" -gt 0 ] && [ "$rows" -eq "$trunc" ] \
    || { echo "expected every server row truncated, got $trunc of $rows"; exit 1; }
echo '== ext-locks smoke (lock-algorithm artifact must run clean, every algorithm present)'
rm -rf target/ci-locks
cargo run --release -q -p scalesim-experiments -- \
    ext-locks --scale 0.02 --threads 4,8 --out target/ci-locks > /dev/null
grep -q '^sunflow,mcs,' target/ci-locks/ext_locks.csv
grep -q '^xalan,malthusian,' target/ci-locks/ext_locks.csv
echo '== per-algorithm audit smoke (every lock algorithm must audit clean, exit 0)'
for alg in fifo mcs malthusian; do
    SCALESIM_LOCK_ALG="$alg" \
        cargo run --release -q -p scalesim-experiments -- \
        audit --out "target/ci-audit-$alg" > /dev/null
done
echo '== bench budget check (committed BENCH_sweep.json must respect its budgets)'
cargo run --release -q -p scalesim-bench --bin bench_check -- BENCH_sweep.json
echo '== traced smoke (timeline export + run manifest must validate)'
rm -rf target/ci-trace
cargo run --release -q -p scalesim-experiments -- \
    fig1d --scale 0.02 --threads 4,8 \
    --out target/ci-trace --trace target/ci-trace/lusearch_trace.json > /dev/null
# fig1d sweeps one RunSpec per thread count => exactly 2 manifest lines.
cargo run --release -q -p scalesim-experiments --bin trace_check -- \
    target/ci-trace/lusearch_trace.json target/ci-trace/manifest.jsonl 2
echo 'CI OK'
