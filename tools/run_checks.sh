#!/usr/bin/env bash
# One-command static-analysis + test gate:
#   1. configure + build (compile_commands.json exported for clang-tidy);
#   2. run the full ctest suite;
#   3. clang-tidy over src/ (skipped with a notice when not installed);
#   4. `rioflow lint` over every shipped workload — all must exit 0;
#   5. `rioflow lint` over every seeded-bad fixture — all must exit non-zero;
#   6. `rioflow check` on every sync-capable engine (rio, rio-pruned, coor)
#      plus the injected-race fixture;
#   7. `rioflow chaos --quick` — the fault sweep must survive with zero
#      oracle mismatches, also on coor's locked ready queue
#      (`--engines coor --queue locked`), and a `--faults crash` sweep must
#      recover every permanent worker death by evict-and-remap with the
#      oracle still matching (docs/robustness.md, "Worker loss and
#      recovery");
#   8. rioflow JSON reports — `profile --quick --json --trace` on two
#      workloads x two engines, plus `chaos --json` and `lint --json`;
#      every emitted document must parse (docs/observability.md);
#   9. `rioflow blame --quick --json` on rio, coor, sim-rio and sim-hybrid
#      — the causal profiler must emit a parsing rio.blame.v1 report on a
#      real engine, the centralized coordinator, the exact simulator and
#      the phased simulator (whose phases share one virtual clock); then
#      `rioflow obs-diff` of an obs.json report against itself must report
#      zero drift (exit 0) and emit a parsing rio.obsdiff.v1 report, and
#      fresh sim-rio / sim-coor profiles must pass `obs-diff` against the
#      committed baselines in tools/baselines/ (virtual time: no drift);
#  10. engine registry sweep — `rioflow engines --json` must emit a parsing
#      rio.engines.v1 report, every backend it lists must smoke-run
#      (`rioflow run`), and every supports_obs backend must also
#      `rioflow profile` and write a parsing `rioflow run --trace` file
#      (docs/engines.md);
#  11. `rioflow optimize --passes fuse,map --report --json` on cholesky and
#      chain — the flowpass pipeline must emit a parsing rio.optimize.v1
#      report, and the optimized image must stay byte-identical to the
#      sequential oracle on BOTH rio and coor (optimize exits 3 on any
#      divergence; docs/passes.md);
#  12. bench JSON reporters — micro_unroll, micro_protocol, abl_wait_policy
#      (full length), micro_recovery, micro_obs, micro_fuse and
#      fig7_workers emit BENCH_*.json, all must parse; BENCH_unroll.json,
#      BENCH_protocol.json, BENCH_wait_policy.json, BENCH_recovery.json,
#      BENCH_obs_overhead.json and BENCH_fuse.json are kept at the repo
#      root (committed reference numbers, see docs/perf.md);
#  13. `rioflow verify --quick` — the implementation-level model checker
#      must exhaust its reduced interleaving space with zero violations and
#      emit a parsing rio.verify.v1 report (docs/analysis.md). Every sync
#      engine is checked under the default policy AND --policy block (the
#      doorbell/parking rewrite) and again with --recover (crash +
#      evicted-resume two-phase exploration); coor runs each of the three
#      with both ready queues, --queue ring (the wait-free MPMC ring, the
#      default) and --queue locked (the mutex+condvar deque lifo, priority
#      and locality still use);
#  14. ThreadSanitizer pass (skipped with RIO_SKIP_TSAN=1): rebuilds the
#      failure suite + executor suite + hybrid suite + obs and causal
#      suites + model checker + rioflow with RIO_SANITIZE=thread and reruns
#      the resilience tests (incl. the recovery + crash-fuzz suites), the
#      persistent-executor tests (concurrent callers, fallback), the hybrid
#      phase engines on their shared pool, the telemetry suites (span
#      sampler and ring accounting driven from live workers on every real
#      engine), the modelcheck suite, the quick
#      chaos sweeps (transient AND crash kinds) and the new wait/notify
#      configurations (block-policy doorbells, coor on both ready queues)
#      under TSan — the retry
#      / watchdog / abort / eviction machinery, the controlled scheduler
#      and the new lock-free primitives are exactly the kind of code TSan
#      earns its keep on.
#
# Usage: tools/run_checks.sh [build-dir]   (default: build)
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
FAILURES=0

step() { printf '\n== %s ==\n' "$*"; }
fail() { printf 'FAIL: %s\n' "$*"; FAILURES=$((FAILURES + 1)); }

step "configure + build ($BUILD)"
cmake -B "$BUILD" -S "$ROOT" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON || exit 1
cmake --build "$BUILD" -j "$(nproc)" || exit 1

step "ctest"
(cd "$BUILD" && ctest --output-on-failure -j "$(nproc)") || fail "ctest"

step "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  # Sources only; headers are covered through HeaderFilterRegex.
  find "$ROOT/src" -name '*.cpp' -print0 |
    xargs -0 clang-tidy -p "$BUILD" --quiet || fail "clang-tidy"
else
  echo "clang-tidy not installed; skipping (install it to enable this gate)"
fi

RIOFLOW="$BUILD/rioflow"
if [ ! -x "$RIOFLOW" ]; then
  fail "rioflow binary not found at $RIOFLOW"
  exit 1
fi

step "rioflow lint: shipped workloads must be clean"
WORKLOADS="independent random chain gemm lu cholesky stencil
  taskbench:trivial taskbench:no_comm taskbench:stencil_1d
  taskbench:stencil_1d_periodic taskbench:fft taskbench:tree
  taskbench:all_to_all taskbench:spread"
for w in $WORKLOADS; do
  if ! "$RIOFLOW" lint --workload "$w" --tiles 4 --width 8 --steps 6 \
       --workers 2 >/dev/null; then
    fail "lint $w (expected clean)"
  fi
done

step "rioflow lint: seeded-bad fixtures must be caught"
for f in "lintfix:uninit-read warning" "lintfix:dead-write warning" \
         "lintfix:unused-handle warning" "lintfix:redundant-edge info" \
         "lintfix:phase-mapping error" "lintfix:empty-phase warning" \
         "lintfix:cross-phase-dep info" "lintfix:tiny-tasks warning"; do
  set -- $f
  if "$RIOFLOW" lint --workload "$1" --fail-on "$2" >/dev/null; then
    fail "lint $1 (expected findings)"
  fi
done

step "rioflow check: clean runs + injected race"
for e in rio rio-pruned coor; do
  if ! "$RIOFLOW" check --engine "$e" --workload stencil --width 6 --steps 4 \
       --task-size 50 --workers 2 >/dev/null; then
    fail "check engine $e (expected clean)"
  fi
done
if "$RIOFLOW" check --workload lintfix:race >/dev/null; then
  fail "check lintfix:race (expected a reported race)"
fi

step "rioflow chaos: quick fault sweep must match the oracle"
if ! "$RIOFLOW" chaos --quick --workers 2 >/dev/null; then
  fail "chaos --quick (stall, oracle mismatch or unexpected error)"
fi

# The locked deque (the queue lifo, priority and locality still use): chaos
# builds its launches like every other command, so --queue must reach coor.
if ! "$RIOFLOW" chaos --quick --workers 2 --engines coor --queue locked \
     >/dev/null; then
  fail "chaos --quick --engines coor --queue locked"
fi

step "rioflow chaos: crash faults must recover by evict-and-remap"
if ! "$RIOFLOW" chaos --quick --workers 3 --faults crash >/dev/null; then
  fail "chaos --faults crash (worker lost, oracle mismatch or error)"
fi

json_ok() {  # validate without depending on a system json tool chain
  if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$1" >/dev/null
  else
    [ -s "$1" ]  # last resort: non-empty
  fi
}

step "rioflow json reports: profile / chaos / lint (rio.*.v1 schemas)"
OBSDIR="$BUILD/obs-check"
mkdir -p "$OBSDIR"
for w in cholesky stencil; do
  for e in rio coor; do
    OBS="$OBSDIR/$w-$e.obs.json"
    TRACE="$OBSDIR/$w-$e.trace.json"
    if "$RIOFLOW" profile --quick --workload "$w" --engine "$e" --workers 2 \
         --json "$OBS" --trace "$TRACE" >/dev/null; then
      json_ok "$OBS" || fail "profile $w/$e: obs.json does not parse"
      json_ok "$TRACE" || fail "profile $w/$e: trace does not parse"
      grep -q '"rio.obs.v1"' "$OBS" || fail "profile $w/$e: missing schema tag"
    else
      fail "profile --quick $w/$e"
    fi
  done
done
if "$RIOFLOW" chaos --quick --workers 2 --json "$OBSDIR/chaos.json" \
     >/dev/null; then
  json_ok "$OBSDIR/chaos.json" || fail "chaos.json does not parse"
  grep -q '"rio.chaos.v2"' "$OBSDIR/chaos.json" ||
    fail "chaos.json: missing schema tag"
else
  fail "chaos --quick --json"
fi
# The fixture is seeded-bad, so lint exits non-zero AND writes the report.
"$RIOFLOW" lint --workload lintfix:dead-write --json "$OBSDIR/lint.json" \
  >/dev/null
if json_ok "$OBSDIR/lint.json"; then
  grep -q '"rio.lint.v1"' "$OBSDIR/lint.json" ||
    fail "lint.json: missing schema tag"
else
  fail "lint.json does not parse"
fi

step "rioflow blame: causal analyzer on real engines + exact simulator"
for e in rio coor sim-rio sim-hybrid; do
  BLAME="$OBSDIR/blame-$e.json"
  if "$RIOFLOW" blame --quick --workload cholesky --tiles 4 --engine "$e" \
       --workers 2 --json "$BLAME" >/dev/null; then
    json_ok "$BLAME" || fail "blame $e: blame.json does not parse"
    grep -q '"rio.blame.v1"' "$BLAME" || fail "blame $e: missing schema tag"
  else
    fail "blame --quick --engine $e"
  fi
done

step "rioflow obs-diff: a report diffed against itself is zero drift"
SELF="$OBSDIR/cholesky-rio.obs.json"  # written by the profile step above
DIFFJSON="$OBSDIR/obsdiff.json"
if "$RIOFLOW" obs-diff "$SELF" "$SELF" --json "$DIFFJSON" >/dev/null; then
  json_ok "$DIFFJSON" || fail "obsdiff.json does not parse"
  grep -q '"rio.obsdiff.v1"' "$DIFFJSON" ||
    fail "obsdiff.json: missing schema tag"
  grep -q '"regressed": false' "$DIFFJSON" ||
    fail "obs-diff self-check: expected zero drift"
else
  fail "obs-diff self-check (expected exit 0)"
fi

step "rioflow obs-diff: simulator profiles against the committed baselines"
# Virtual time makes these profiles reproducible, so any drift is a change
# in the simulator or the telemetry. A change that means it regenerates the
# baselines (tools/baselines/README.md) and says why.
for e in sim-rio sim-coor; do
  FRESH="$OBSDIR/baseline-$e.obs.json"
  if "$RIOFLOW" profile --quick --workload cholesky --tiles 4 --workers 2 \
       --engine "$e" --json "$FRESH" >/dev/null; then
    "$RIOFLOW" obs-diff "$ROOT/tools/baselines/$e.obs.json" "$FRESH" \
      >/dev/null || fail "obs-diff tools/baselines/$e.obs.json (drifted)"
  else
    fail "profile --quick --engine $e (baseline refresh)"
  fi
done

step "rioflow engines: registry-driven smoke of every backend"
ENGJSON="$OBSDIR/engines.json"
if "$RIOFLOW" engines --json "$ENGJSON" >/dev/null; then
  json_ok "$ENGJSON" || fail "engines.json does not parse"
  grep -q '"rio.engines.v1"' "$ENGJSON" ||
    fail "engines.json: missing schema tag"
  if command -v python3 >/dev/null 2>&1; then
    ENGINES="$(python3 -c 'import json,sys
d = json.load(open(sys.argv[1]))
print(" ".join(e["name"] for e in d["engines"]))' "$ENGJSON")"
    OBS_ENGINES="$(python3 -c 'import json,sys
d = json.load(open(sys.argv[1]))
print(" ".join(e["name"] for e in d["engines"]
               if e["capabilities"]["supports_obs"]))' "$ENGJSON")"
  else
    # Degraded extraction without python3: names only, skip the obs sweep.
    ENGINES="$(grep -o '"name": "[^"]*"' "$ENGJSON" | cut -d'"' -f4)"
    OBS_ENGINES=""
  fi
  [ -n "$ENGINES" ] || fail "engines.json lists no backends"
  for e in $ENGINES; do
    "$RIOFLOW" --engine "$e" --workload cholesky --tiles 3 --task-size 50 \
      --workers 2 >/dev/null || fail "run --engine $e"
  done
  for e in $OBS_ENGINES; do
    "$RIOFLOW" profile --quick --workload cholesky --tiles 3 --workers 2 \
      --engine "$e" >/dev/null || fail "profile --engine $e"
    RUNTRACE="$OBSDIR/run-$e.trace.json"
    if "$RIOFLOW" --engine "$e" --workload cholesky --tiles 3 --task-size 50 \
         --workers 2 --trace "$RUNTRACE" >/dev/null; then
      json_ok "$RUNTRACE" || fail "run --trace --engine $e: does not parse"
    else
      fail "run --trace --engine $e"
    fi
  done
else
  fail "engines --json"
fi

step "rioflow optimize: fuse+map pipeline, byte-verified (rio.optimize.v1)"
# optimize byte-compares BOTH the optimized and unoptimized runs against the
# sequential oracle and exits 3 on any divergence, so a zero exit here IS the
# semantic-preservation proof on a real engine.
for w in "cholesky --tiles 4" "chain --tasks 64"; do
  set -- $w
  WL="$1"; shift
  for e in rio coor; do
    OPTJSON="$OBSDIR/optimize-$WL-$e.json"
    if "$RIOFLOW" optimize --workload "$WL" "$@" --task-size 5 --workers 2 \
         --engine "$e" --passes fuse,map --report --json "$OPTJSON" \
         >/dev/null; then
      json_ok "$OPTJSON" || fail "optimize $WL/$e: json does not parse"
      grep -q '"rio.optimize.v1"' "$OPTJSON" ||
        fail "optimize $WL/$e: missing schema tag"
    else
      fail "optimize $WL/$e (pipeline error or oracle mismatch)"
    fi
  done
done
# Tuned mapping search under the exact simulator must also verify + parse.
TUNEJSON="$OBSDIR/optimize-tuned.json"
if "$RIOFLOW" optimize --workload cholesky --tiles 4 --task-size 50 \
     --workers 2 --engine sim-rio --tune --json "$TUNEJSON" >/dev/null; then
  json_ok "$TUNEJSON" || fail "optimize --tune: json does not parse"
else
  fail "optimize --tune --engine sim-rio"
fi

step "bench json reporters"
# Run from the repo root: the reporters write BENCH_<id>.json into $PWD.
if (cd "$ROOT" && "$BUILD/bench/micro_unroll" --quick --json >/dev/null); then
  if ! json_ok "$ROOT/BENCH_unroll.json"; then
    fail "BENCH_unroll.json does not parse"
  fi
else
  fail "micro_unroll --quick --json"
fi
if (cd "$ROOT" && "$BUILD/bench/micro_protocol" --quick --json >/dev/null); then
  if ! json_ok "$ROOT/BENCH_protocol.json"; then
    fail "BENCH_protocol.json does not parse"
  fi
else
  fail "micro_protocol --quick --json"
fi
# Full length (about 10 s): the committed policy table keeps its 21 repeats.
if (cd "$ROOT" && "$BUILD/bench/abl_wait_policy" --json >/dev/null); then
  if ! json_ok "$ROOT/BENCH_wait_policy.json"; then
    fail "BENCH_wait_policy.json does not parse"
  fi
else
  fail "abl_wait_policy --json"
fi
if (cd "$ROOT" && "$BUILD/bench/micro_recovery" --quick --json >/dev/null); then
  if ! json_ok "$ROOT/BENCH_recovery.json"; then
    fail "BENCH_recovery.json does not parse"
  fi
else
  fail "micro_recovery --quick --json"
fi
if (cd "$ROOT" && "$BUILD/bench/micro_obs" --quick --json >/dev/null); then
  if ! json_ok "$ROOT/BENCH_obs_overhead.json"; then
    fail "BENCH_obs_overhead.json does not parse"
  fi
else
  fail "micro_obs --quick --json"
fi
if (cd "$ROOT" && "$BUILD/bench/micro_fuse" --quick --json >/dev/null); then
  if ! json_ok "$ROOT/BENCH_fuse.json"; then
    fail "BENCH_fuse.json does not parse"
  fi
else
  fail "micro_fuse --quick --json"
fi
if (cd "$ROOT" && "$BUILD/bench/fig7_workers" --quick --json >/dev/null); then
  if ! json_ok "$ROOT/BENCH_fig7_workers.json"; then
    fail "BENCH_fig7_workers.json does not parse"
  fi
  rm -f "$ROOT/BENCH_fig7_workers.json"  # unroll stays; figures are transient
else
  fail "fig7_workers --quick --json"
fi

step "rioflow verify: model-check the real protocol (rio.verify.v1)"
VERJSON="$OBSDIR/verify.json"
# Each sync engine, coor once per ready queue (the ring is the default; the
# locked deque still serves lifo, priority and locality).
for cfg in rio rio-pruned "coor --queue ring" "coor --queue locked"; do
  # $cfg is split on purpose: an engine name plus, for coor, its queue flag.
  if ! "$RIOFLOW" verify --engine $cfg --workload chain --quick \
       >/dev/null; then
    fail "verify --engine $cfg --quick (expected zero violations)"
  fi
  # The parking rewrite: block-policy waits (doorbells on rio engines,
  # parked ring consumers on coor) must stay lost-wakeup free.
  if ! "$RIOFLOW" verify --engine $cfg --workload chain --quick \
       --policy block >/dev/null; then
    fail "verify --engine $cfg --policy block --quick"
  fi
  # The eviction protocol: explore the crash, then the resumed workers-1
  # configuration under the evicted mapping.
  if ! "$RIOFLOW" verify --engine $cfg --workload chain --quick \
       --recover >/dev/null; then
    fail "verify --engine $cfg --recover --quick"
  fi
done
if "$RIOFLOW" verify --engine rio --workload chain --quick \
     --json "$VERJSON" >/dev/null; then
  json_ok "$VERJSON" || fail "verify.json does not parse"
  grep -q '"rio.verify.v1"' "$VERJSON" ||
    fail "verify.json: missing schema tag"
else
  fail "verify --quick --json"
fi

step "thread sanitizer: resilience + telemetry + modelcheck suites + quick chaos sweep"
if [ "${RIO_SKIP_TSAN:-0}" = "1" ]; then
  echo "RIO_SKIP_TSAN=1; skipping"
else
  TSAN_BUILD="$BUILD-tsan"
  if cmake -B "$TSAN_BUILD" -S "$ROOT" -DRIO_SANITIZE=thread \
       -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null &&
     cmake --build "$TSAN_BUILD" -j "$(nproc)" \
       --target failure_test modelcheck_test executor_test hybrid_test \
         obs_test causal_test rioflow \
       >/dev/null; then
    "$TSAN_BUILD/tests/failure_test" >/dev/null ||
      fail "failure_test under TSan"
    # The persistent executors (rio, rio-pruned, coor, hybrid): reuse after
    # failures, concurrent and re-entrant callers racing for one (one takes
    # the one-shot fallback).
    "$TSAN_BUILD/tests/executor_test" >/dev/null ||
      fail "executor_test under TSan"
    "$TSAN_BUILD/tests/modelcheck_test" >/dev/null ||
      fail "modelcheck_test under TSan"
    # Hybrid phases: one phase launch drives a rio and a coor engine that
    # share one persistent pool across every phase.
    "$TSAN_BUILD/tests/hybrid_test" >/dev/null ||
      fail "hybrid_test under TSan"
    # Telemetry: the span sampler, weighted phase totals and ring
    # accounting run on live worker threads of every real engine.
    "$TSAN_BUILD/tests/obs_test" >/dev/null ||
      fail "obs_test under TSan"
    "$TSAN_BUILD/tests/causal_test" >/dev/null ||
      fail "causal_test under TSan"
    "$TSAN_BUILD/rioflow" chaos --quick --workers 2 >/dev/null ||
      fail "chaos --quick under TSan"
    # Worker-death recovery: the DeathBoard, dirty-span restore and
    # evict-and-resume paths race with the survivors by design.
    "$TSAN_BUILD/rioflow" chaos --quick --workers 3 --faults crash \
      >/dev/null || fail "chaos --faults crash under TSan"
    # New wait/notify configurations: doorbell-batched block wakeups on the
    # rio engines; on coor the wait-free MPMC ring (yielding + parked
    # consumers) and the locked deque, each requested explicitly.
    for e in rio rio-pruned; do
      "$TSAN_BUILD/rioflow" --engine "$e" --workload cholesky --tiles 3 \
        --task-size 50 --workers 2 --policy block >/dev/null ||
        fail "$e --policy block under TSan"
    done
    for q in ring locked; do
      for p in yield block; do
        "$TSAN_BUILD/rioflow" --engine coor --workload cholesky --tiles 3 \
          --task-size 50 --workers 2 --queue "$q" --policy "$p" \
          >/dev/null || fail "coor --queue $q --policy $p under TSan"
      done
    done
  else
    fail "TSan build (set RIO_SKIP_TSAN=1 to skip)"
  fi
fi

step "summary"
if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES check(s) failed"
  exit 1
fi
echo "all checks passed"
