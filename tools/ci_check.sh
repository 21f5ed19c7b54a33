#!/usr/bin/env bash
# Sanitizer gate for the robustness subsystems: builds the repo under
# AddressSanitizer and UndefinedBehaviorSanitizer and runs every test
# labeled kernel, setup, faults, audit, recovery, resize, open, or control
# under each. The fault-injection, invariant-audit, online-recovery,
# elastic-membership, open-system and closed-loop-control code paths are
# exactly the ones that exercise coroutine lifetimes, signal-driven
# interrupts and background I/O racing foreground queries — the bugs
# sanitizers exist to catch. The kernel label (event calendar and its
# order-equivalence property test, coroutine tasks, channels and resources;
# the CPU, disk and network models with the network's delivery sinks; the
# allocation-count probes) covers the frame lifetimes every layer above
# rests on; under ASan the FrameCache passes each frame through the heap.
# The setup label (relations and their derived attributes, B+-trees, the
# Wisconsin generator, grid file, declustering and rebalancer, shared index
# tree sets and catalog indexes) covers the index arithmetic of the
# partitioning path.
#
# A third pass builds under ThreadSanitizer and runs the tests that drive
# real threads (the thread pool, the runner's parallel sweeps — whose
# workers read one strategy's shared index trees concurrently — and the
# jobs=4 identity cases of the recovery, resize, open and control sweeps),
# then a Release build runs a differential smoke: the same quick sweeps —
# one of them rebuilding a failed disk while slices migrate — serially and
# with --jobs 4 must produce byte-identical text and CSV output, the
# allocation-count
# and frame-cache tests must pass on the Release frame layout and
# allocator, the audit differential must hold on a plain, an open and an
# elastic configuration, and the calendar and
# MAGIC-build micro benchmarks must run once, as must the MAGIC freeze
# equivalence tests. Every tree also runs the golden label: report bytes
# (CSV, text reports, manifest digest) pinned across commits, which must
# hold under every sanitizer and on the Release build. Before any build, a
# lint rejects ASCII control bytes
# other than tab and newline in the tracked files under src/, tests/,
# tools/, examples/ and bench/.
#
#   tools/ci_check.sh [--jobs N] [--fresh]
#
# Build trees live in build-asan/, build-ubsan/, build-tsan/ and
# build-relsmoke/ next to the source tree (all gitignored) and are reused
# across runs unless --fresh is given.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
FRESH=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs) JOBS="$2"; shift 2 ;;
    --jobs=*) JOBS="${1#*=}"; shift ;;
    --fresh) FRESH=1; shift ;;
    -h|--help)
      sed -n '2,42p' "$0"; exit 0 ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
done

FAILED=0

# Lint: no ASCII control bytes other than tab and newline in tracked source
# files (a stray backspace once replaced the '\b' of a doc comment's
# "\brief").
echo "=== lint: control bytes in src/ tests/ tools/ examples/ bench/ ==="
CONTROL_BYTES="$(git -C "$ROOT" ls-files -z -- src tests tools examples bench \
  | (cd "$ROOT" && xargs -0 env LC_ALL=C \
       grep -nP '[\x00-\x08\x0b-\x1f\x7f]' || true))"
if [[ -n "$CONTROL_BYTES" ]]; then
  printf '%s\n' "$CONTROL_BYTES" | cat -v >&2
  echo "*** lint: FAILED — control bytes in the lines above" >&2
  FAILED=1
else
  echo "lint: no control bytes"
fi

run_preset() {
  local name="$1" flag="$2" labels="$3"
  shift 3
  local build_dir="$ROOT/build-$name"
  echo "=== $name: configure + build (${build_dir#"$ROOT"/}) ==="
  if [[ "$FRESH" == 1 ]]; then rm -rf "$build_dir"; fi
  cmake -S "$ROOT" -B "$build_dir" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -D"$flag"=ON \
    -DDECLUST_BUILD_BENCHMARKS=OFF \
    -DDECLUST_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$build_dir" -j"$JOBS" --target "$@"
  echo "=== $name: ctest -L '$labels' ==="
  if ! ctest --test-dir "$build_dir" -L "$labels" --output-on-failure \
      -j"$JOBS"; then
    echo "*** $name: FAILED" >&2
    FAILED=1
  fi
}

# The scale label rides the ASAN pass: its 256-node x 1M-tuple smoke drives
# the threaded catalog-build pass under the sanitizer (the 1,024-node
# Release-only test self-skips there and runs in the relsmoke tree below).
run_preset asan DECLUST_ASAN \
  'kernel|setup|faults|audit|recovery|resize|open|control|scale|golden' \
  sim_test alloc_count_test hw_test storage_test workload_test grid_test decluster_test \
  engine_test fault_test audit_test recovery_test resize_test open_test \
  control_test scale_test report_golden_test audit_sweep
run_preset ubsan DECLUST_UBSAN \
  'kernel|setup|faults|audit|recovery|resize|open|control|golden' \
  sim_test alloc_count_test hw_test storage_test workload_test grid_test decluster_test \
  engine_test fault_test audit_test recovery_test resize_test open_test \
  control_test report_golden_test audit_sweep
# Threads enter through the ThreadPool: --jobs runs sweep replications side
# by side, each on its own Simulation. TSAN covers the pool itself and the
# runner's determinism tests (the threads label), plus the jobs=4 identity
# cases of the recovery, resize, open and control sweeps — replications that
# rebuild disks, migrate slices, shed arrivals and actuate the controller
# concurrently.
run_preset tsan DECLUST_TSAN 'threads|recovery|resize|open|control|golden' \
  common_test exp_test recovery_test resize_test open_test control_test \
  report_golden_test audit_sweep

# Release differential smoke: the plain quick sweep, a live resize plan (node
# added mid-run, then drained back out), a disk failure whose repair rebuilds
# the node while that same resize plan migrates slices (both coordinators
# copying through the one shared page-copy engine), an open arrival plan (two
# offered loads, Zipf skew, a second relation, an admission cap) and the
# closed-loop controller must each be byte-identical serially and with
# --jobs 4, both as the text table and as the CSV (which alone carries the
# CI95, utilization, ctl_* and resize phase columns). Release mode matters
# here — it is the configuration where reordering or racy reads would
# actually surface as digest drift.
echo "=== relsmoke: configure + build (build-relsmoke) ==="
SMOKE_DIR="$ROOT/build-relsmoke"
if [[ "$FRESH" == 1 ]]; then rm -rf "$SMOKE_DIR"; fi
cmake -S "$ROOT" -B "$SMOKE_DIR" \
  -DCMAKE_BUILD_TYPE=Release \
  -DDECLUST_BUILD_BENCHMARKS=ON \
  -DDECLUST_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$SMOKE_DIR" -j"$JOBS" --target run_experiment audit_sweep \
  scale_test alloc_count_test common_test decluster_test report_golden_test \
  micro_sim_kernel micro_assignment micro_gridfile micro_btree
SMOKE_ARGS=(--strategies range,hash --mpls 4 --repeats 1 --cardinality 20000
            --processors 8 --warmup 500 --measure 2000)
# Each variant is its extra arguments, '|'-separated.
RESIZE_SPEC='add:node8@t=1s;remove:node8@t=2s'
OPEN_SPEC='rate:150;zipf:0.8;relation:card=5000,weight=1;cap:64'
CONTROL_SPEC='slo:p95<40ms,every=250ms,settle=2;scale:min=4,max=10;budget:frac=0.3;degrade:floor=8'
SMOKE_VARIANTS=(
  ""
  "--resize|$RESIZE_SPEC"
  "--faults|disk:node2@t=600ms|--recovery|repair:node2@t=1s|--resize|$RESIZE_SPEC"
  "--open|$OPEN_SPEC|--offered|60,120"
  "--control|$CONTROL_SPEC|--open|$OPEN_SPEC|--offered|120"
)
for variant in "${SMOKE_VARIANTS[@]}"; do
  IFS='|' read -r -a extra <<< "$variant"
  label="${extra[0]:-plain}"
  for format in table csv; do
    fmt=()
    if [[ "$format" == csv ]]; then fmt=(--csv); fi
    echo "=== relsmoke: $label $format serial vs --jobs 4 digest ==="
    serial="$("$SMOKE_DIR/tools/run_experiment" "${SMOKE_ARGS[@]}" \
      "${extra[@]}" "${fmt[@]}")"
    threaded="$("$SMOKE_DIR/tools/run_experiment" "${SMOKE_ARGS[@]}" \
      "${extra[@]}" "${fmt[@]}" --jobs 4)"
    if [[ "$label" == plain && "$format" == table ]]; then
      SERIAL_OUT="$serial"
    fi
    if [[ "$serial" == "$threaded" ]]; then
      echo "relsmoke: $label $format serial and --jobs 4 are byte-identical"
    else
      echo "*** relsmoke: FAILED — $label --jobs 4 changed the $format" >&2
      diff <(printf '%s\n' "$serial") <(printf '%s\n' "$threaded") \
        | head -40 >&2 || true
      FAILED=1
    fi
  done
done
# Parallel-catalog-build differential: the same quick sweep with the
# two-pass build fanned out over 8 threads (DECLUST_JOBS drives the
# tree-construction pass) must be byte-identical to the serial build —
# extent allocation is serial by design, so any drift here is a bug in the
# build split, not timing noise.
echo "=== relsmoke: DECLUST_JOBS=8 catalog build digest ==="
JOBS8_OUT="$(DECLUST_JOBS=8 "$SMOKE_DIR/tools/run_experiment" \
  "${SMOKE_ARGS[@]}")"
if [[ "$SERIAL_OUT" == "$JOBS8_OUT" ]]; then
  echo "relsmoke: serial and DECLUST_JOBS=8 catalog builds are byte-identical"
else
  echo "*** relsmoke: FAILED — DECLUST_JOBS=8 changed the results" >&2
  diff <(printf '%s\n' "$SERIAL_OUT") <(printf '%s\n' "$JOBS8_OUT") \
    | head -40 >&2 || true
  FAILED=1
fi
# The Release-only thousand-node test (byte-identical extents at 1,024
# slices, footprint ceiling, run-length vs legacy page sequences) only runs
# with NDEBUG and no sanitizer — exactly this tree.
echo "=== relsmoke: ctest -L scale (thousand-node setup path) ==="
if ! ctest --test-dir "$SMOKE_DIR" -L scale --output-on-failure; then
  echo "*** relsmoke: scale suite FAILED" >&2
  FAILED=1
fi
# The heap-silence and parked-site budget cases depend on the coroutine
# frame layout, which the optimizer decides: run them once on the Release
# frames too (the sanitizer trees skip or perturb them).
echo "=== relsmoke: AllocCountTest on the Release frame layout ==="
if ! "$SMOKE_DIR/tests/alloc_count_test" --gtest_filter='AllocCountTest.*'; then
  echo "*** relsmoke: AllocCountTest FAILED" >&2
  FAILED=1
fi
# The report pins must hold on the Release build as well as under the
# sanitizers above.
echo "=== relsmoke: report golden pins on the Release build ==="
if ! "$SMOKE_DIR/tests/report_golden_test"; then
  echo "*** relsmoke: report golden pins FAILED" >&2
  FAILED=1
fi
# Under the sanitizers the FrameCache passes every frame through the heap,
# so its 16-byte classes and chunk carving are checked here, where the
# engine uses them.
echo "=== relsmoke: FrameCacheTest on the Release allocator ==="
if ! "$SMOKE_DIR/tests/common_test" --gtest_filter='FrameCacheTest.*'; then
  echo "*** relsmoke: FrameCacheTest FAILED" >&2
  FAILED=1
fi
# The calendar micro cases (tie-heavy, scattered and the real figure-8 and
# open_skew mixes) must run to completion; their rates are not gated here.
echo "=== relsmoke: micro_sim_kernel calendar cases run ==="
if ! "$SMOKE_DIR/bench/micro_sim_kernel" --benchmark_filter='BM_Calendar' \
    --benchmark_min_time=0.01; then
  echo "*** relsmoke: micro_sim_kernel calendar cases FAILED" >&2
  FAILED=1
fi
# The MAGIC build cases (the scale_setup climbs, the whole
# MagicPartitioning::Create on 500k correlated tuples and the correlated
# grid-file bulk load) must run to completion; their times are not gated.
echo "=== relsmoke: MAGIC build micro cases run ==="
if ! "$SMOKE_DIR/bench/micro_assignment" \
    --benchmark_filter='BM_RebalanceScaleSetup|BM_MagicCreateScaleSetup' \
    --benchmark_min_time=0.01; then
  echo "*** relsmoke: micro_assignment MAGIC build cases FAILED" >&2
  FAILED=1
fi
if ! "$SMOKE_DIR/bench/micro_gridfile" \
    --benchmark_filter='BM_GridInsertCorrelated' --benchmark_min_time=0.01; then
  echo "*** relsmoke: micro_gridfile correlated insert case FAILED" >&2
  FAILED=1
fi
# MAGIC stops inserting once its grid file's scales freeze; the Release
# build must give the scales, cell weights, cell processors and tuple homes
# of a grid file that inserts every tuple.
if ! "$SMOKE_DIR/tests/decluster_test" \
    --gtest_filter='GridFreezeTest.*:*MagicFreezeTest.*'; then
  echo "*** relsmoke: MAGIC freeze equivalence FAILED" >&2
  FAILED=1
fi
# The B+-tree cases (bulk load, point and range lookups) must run to
# completion; their rates are not gated here.
echo "=== relsmoke: micro_btree cases run ==="
if ! "$SMOKE_DIR/bench/micro_btree" --benchmark_min_time=0.01; then
  echo "*** relsmoke: micro_btree cases FAILED" >&2
  FAILED=1
fi
# audit_sweep's differential harness runs the same config through every
# variant (jobs=1, jobs=1+audit, jobs=N+audit, chained backups, inactive
# fault plan) and compares result digests — the invariant-level form of the
# check above. The resize case, 32 processors growing to 36 over a 20 s
# window, is one where chained backups move the elastic catalog's extents.
audit_differential() {
  local label="$1"
  shift
  echo "=== relsmoke: audit_sweep differential ($label) ==="
  if ! "$SMOKE_DIR/tools/audit_sweep" "$@"; then
    echo "*** relsmoke: audit_sweep differential ($label) FAILED" >&2
    FAILED=1
  fi
}
audit_differential plain "${SMOKE_ARGS[@]}"
audit_differential open "${SMOKE_ARGS[@]}" --open "$OPEN_SPEC"
audit_differential resize --strategies range --mpls 4 --repeats 1 \
  --cardinality 20000 --warmup 500 --measure 20000 \
  --resize 'add:node32-35@t=2s;remove:node32-35@t=8s'

# Bad-spec smoke: a malformed plan spec must exit 2 at once, naming its
# plan on stderr, in both tools (audit_sweep has no --degraded). nan once
# sent a slow: factor into an endless loop, hence the hard kill.
echo "=== relsmoke: malformed plan specs exit 2 ==="
BAD_SPECS=(
  "faults|--faults|slow:node0@t=0,x=nan"
  "recovery|--faults|disk:node2@t=600ms|--recovery|repair:node2@t=inf"
  "resize|--resize|add:node8@t=1s,batch=0x10"
  "open|--open|rate:inf"
  "control|--control|slo:p95<40ms,every=nan"
  "faults|--degraded|1|--faults|io:node0@t=0,rate=nan"
)
for case in "${BAD_SPECS[@]}"; do
  IFS='|' read -r -a bad <<< "$case"
  plan="${bad[0]}"
  for tool in run_experiment audit_sweep; do
    if [[ "$tool" == audit_sweep && "${bad[1]}" == --degraded ]]; then
      continue
    fi
    status=0
    err="$(timeout -s KILL 10 "$SMOKE_DIR/tools/$tool" "${SMOKE_ARGS[@]}" \
      "${bad[@]:1}" 2>&1 >/dev/null)" || status=$?
    if [[ "$status" == 2 && "$err" == *"$plan"* ]]; then
      echo "relsmoke: $tool ${bad[*]:1} exits 2 naming $plan"
    else
      echo "*** relsmoke: FAILED — $tool ${bad[*]:1} exited $status:" >&2
      printf '%s\n' "$err" | head -3 >&2
      FAILED=1
    fi
  done
done

if [[ "$FAILED" != 0 ]]; then
  echo "ci_check: sanitizer gate FAILED" >&2
  exit 1
fi
echo "ci_check: no control bytes," \
  "kernel|setup|faults|audit|recovery|resize|open|control|scale|golden clean" \
  "under ASAN/UBSAN, threads|recovery|resize|open|control|golden clean under" \
  "TSAN, serial vs --jobs 4 release tables and CSVs stable" \
  "(rebuild-plus-resize included)"
