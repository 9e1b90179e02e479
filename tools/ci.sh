#!/usr/bin/env bash
# CI entry point. Legs, in order:
#   1   default build + full test suite
#   1a  the benchmark's own tests (lifebench/test_lifebench.py): builds
#       the lifecycle benchmark against src/ and runs both workloads on a
#       small dataset, checking every answer and every printed metric
#   1b  trace export smoke (Chrome trace JSON shape)
#   1c  plan snapshots: golden logical+physical plans for every driver
#       statement across the 3 join strategies x 2 CTE modes
#   1d  Debug build (plan + logical verifiers on) + full test suite
#   1e  differential fuzz smoke: 1,000 seeded queries across all 30
#       configurations (3 join strategies x 9 optimizer settings plus a
#       per-strategy vector1 scalar-compat lane) and a cached-vs-uncached
#       serving lane, plan and translation verifiers armed; then a
#       vector-size sweep (1/3/2048) re-runs a smaller batch so chunked
#       execution is diffed against tuple-at-a-time at awkward chunk
#       sizes, once plain and once with the chunk invariant verifier
#       (BSV020-025) forced on in every lane
#   1f  serving bench smoke: concurrent sessions through the keyed plan
#       cache, hit rate > 0 and cached results equal to uncached; the same
#       run exports Prometheus text which a format checker validates
#       (family presence, monotone cumulative buckets, no duplicates)
#   2   Debug + ASan/UBSan build + full test suite + fuzz smoke
#   3   Debug + TSan build, concurrency hammer tests (registry/trace/stats
#       sinks + the multi-session serving hammer)
#   4   clang-tidy over the files changed by the latest commit plus the
#       optimizer/planner core and the concurrent serving/observability
#       layers (skipped with a notice when clang-tidy is not installed)
#   5   concurrency static analysis: the annotation-coverage lint
#       (tools/check_annotations.py, pure Python, always runs), then a
#       clang build of src/ with -Wthread-safety promoted to errors
#       (skipped with a notice when clang++ is not installed)
#
#   tools/ci.sh            # all legs
#   tools/ci.sh --fast     # leg 1 + 1a + 1b + 1c only
set -euo pipefail

cd "$(dirname "$0")/.."

run_leg() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure
}

echo "=== leg 1: default build ==="
run_leg build

echo "=== leg 1a: benchmark tests ==="
# The benchmark compiles src/ on its own (no root CMake target builds it)
# and drives the public entry points the driver and the serving layer use,
# so this is where a change to those signatures or to the lifecycle's
# answers shows up.
python3 lifebench/test_lifebench.py

echo "=== leg 1b: trace export smoke ==="
# A bench run with --trace-json= must emit well-formed Chrome trace JSON
# (an array of complete events), loadable by chrome://tracing.
trace_out="build/ci_trace.json"
build/bench/bench_fig3_training --scale=0.02 --trace-json="$trace_out" \
  --obs-json=build/ci_obs.json >/dev/null
python3 -m json.tool "$trace_out" >/dev/null
python3 - "$trace_out" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))
assert isinstance(events, list) and events, "expected a non-empty event array"
for e in events:
    assert e["ph"] == "X" and "ts" in e and "dur" in e and "name" in e, e
cats = {e["cat"] for e in events}
assert "statement" in cats, cats
print(f"trace ok: {len(events)} events, categories {sorted(cats)}")
EOF

echo "=== leg 1c: plan snapshots ==="
# Golden logical + physical plans for every BornSQL driver statement under
# all six join-strategy x CTE-mode configurations. Drift means the planner
# or an optimizer rule changed behaviour: review it, then regenerate with
#   BORNSQL_UPDATE_GOLDENS=1 build/tests/plan_snapshot_test
build/tests/plan_snapshot_test

if [[ "${1:-}" != "--fast" ]]; then
  echo "=== leg 1d: Debug + plan verifier ==="
  # Debug defaults EngineConfig::verify_plans on, so every statement in the
  # suite runs the physical plan-invariant verifier before execution and the
  # logical verifier after each optimizer rule that rewrote the plan.
  run_leg build-dbg -DCMAKE_BUILD_TYPE=Debug

  echo "=== leg 1e: differential fuzz smoke ==="
  # 1,000 seeded grammar queries, each executed under every configuration
  # on the correctness axes (3 join strategies x {all rules on, all off,
  # each rule off, inlined CTEs}) with the plan and translation verifiers
  # forced on. Any result divergence or verifier violation fails the leg
  # and prints a shrunk counterexample plus its --seed/--repro one-liner.
  # Runs from the leg-1 build: the fuzzer arms the verifiers itself, so an
  # optimized build loses no checking, only wall-clock. Each query also
  # replays twice through a serving session, so the second run is served
  # from the plan cache and compared against the uncached baseline.
  build/tools/fuzz/bornsql_fuzzer --seed=20260806 --queries=1000
  # Vector-size sweep: the same differential matrix with every non-vector1
  # lane forced to an explicit chunk size. Size 1 makes every lane scalar
  # (pure row-wise cross-check), 3 exercises chunk-boundary edges (partial
  # chunks, mid-chunk LIMIT cuts) on nearly every query, 2048 is the
  # default production size.
  for vs in 1 3 2048; do
    build/tools/fuzz/bornsql_fuzzer --seed=20260806 --queries=200 \
      --vector-size="$vs"
  done
  # Execution-contract lane: the same sweep with the chunk invariant
  # verifier (BSV020-025) forced on in every lane, so each operator
  # boundary crossing of each differential config is checked for
  # schema/cardinality agreement, selection validity, COW payload sanity,
  # lifecycle order and memory-charge balance.
  for vs in 1 3 2048; do
    build/tools/fuzz/bornsql_fuzzer --seed=20260806 --queries=200 \
      --vector-size="$vs" --verify-chunks
  done

  echo "=== leg 1f: serving bench smoke ==="
  # Concurrent sessions replaying the prepared predict query. After the
  # per-session PREPARE miss, every EXECUTE must be served from the keyed
  # plan cache, and cached results must match a cache-disabled session's.
  build/bench/bench_serving --scale=0.2 --threads=1,2 \
    --json=build/ci_serving.json \
    --metrics-prom=build/ci_metrics.prom >/dev/null
  python3 - build/ci_serving.json <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["cached_equals_uncached"] is True, report
for point in report["sweep"]:
    assert point["hit_rate"] > 0, point
    assert point["session_peak_bytes"] > 0, point
print("serving ok: " + ", ".join(
    "%dt hit_rate=%.1f%%" % (p["threads"], 100 * p["hit_rate"])
    for p in report["sweep"]))
EOF
  # Prometheus text exposition checker: every line parses, every family is
  # TYPEd exactly once, histogram buckets are cumulative and end at +Inf
  # with _count equal to the +Inf bucket, and the workload's key families
  # (plan cache, statement latency, memory gauges) are all present.
  python3 - build/ci_metrics.prom <<'EOF'
import re, sys
lines = open(sys.argv[1]).read().splitlines()
assert lines, "empty Prometheus export"
types = {}            # family -> counter|gauge|histogram
samples = {}          # full metric name (no labels) -> [(labels, value)]
name_re = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*$')
for line in lines:
    if not line.strip():
        continue
    if line.startswith("# TYPE "):
        _, _, fam, kind = line.split(None, 3)
        assert fam not in types, f"duplicate TYPE for {fam}"
        assert kind in ("counter", "gauge", "histogram"), line
        types[fam] = kind
        continue
    if line.startswith("#"):
        continue
    m = re.match(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$', line)
    assert m, f"unparseable sample line: {line!r}"
    name, labels, value = m.group(1), m.group(2) or "", m.group(3)
    assert name_re.match(name), name
    float(value)  # must parse
    samples.setdefault(name, []).append((labels, value))
for name in samples:
    fam = re.sub(r'_(bucket|sum|count)$', '', name)
    assert name in types or fam in types, f"sample {name} has no # TYPE"
for fam, kind in types.items():
    if kind != "histogram":
        continue
    buckets = samples.get(fam + "_bucket", [])
    assert buckets, f"histogram {fam} has no buckets"
    prev, saw_inf = -1, False
    for labels, value in buckets:
        le = re.search(r'le="([^"]+)"', labels).group(1)
        cum = float(value)
        assert cum >= prev, f"{fam} buckets not cumulative at le={le}"
        prev = cum
        saw_inf = saw_inf or le == "+Inf"
    assert saw_inf, f"histogram {fam} missing le=\"+Inf\""
    count = float(samples[fam + "_count"][0][1])
    assert count == prev, f"{fam}_count {count} != +Inf bucket {prev}"
required = [
    "bornsql_plan_cache_hits_total",
    "bornsql_plan_cache_misses_total",
    "bornsql_statement_latency_us",
    "bornsql_memory_current_bytes",
    "bornsql_memory_peak_bytes",
]
for fam in required:
    assert fam in types, f"required family {fam} missing from export"
print(f"prometheus ok: {len(types)} families, "
      f"{sum(len(v) for v in samples.values())} samples")
EOF

  echo "=== leg 2: Debug + ASan/UBSan ==="
  # halt_on_error so ctest actually fails on a UBSan report.
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
  run_leg build-san -DCMAKE_BUILD_TYPE=Debug \
    -DBORNSQL_SANITIZE=address,undefined
  # Fuzz smoke under ASan/UBSan: fewer queries (sanitized execution is
  # several times slower), same fixed seed so failures reproduce exactly.
  build-san/tools/fuzz/bornsql_fuzzer --seed=20260806 --queries=100

  echo "=== leg 3: Debug + TSan (concurrency hammers) ==="
  # The engine itself is single-threaded by contract; what must be
  # thread-safe are the observability sinks (MetricsRegistry, TraceRecorder,
  # StatementStatsRegistry) and the serving layer (concurrent sessions over
  # one Server: shared catalog, plan cache, PREPARE/EXECUTE vs DDL vs SET --
  # the ConcurrentSessionsHammer test). Run the multithreaded hammer tests
  # under TSan rather than the whole suite: the single-threaded tests cannot
  # race and TSan slows them ~10x for no signal.
  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DBORNSQL_SANITIZE=thread
  cmake --build build-tsan -j "$(nproc)"
  ctest --test-dir build-tsan --output-on-failure -R 'Concurrent'

  echo "=== leg 4: clang-tidy over changed files + optimizer core ==="
  # New warnings in the files a commit touches fail the leg; pre-existing
  # warnings elsewhere in the tree do not block unrelated changes. The
  # optimizer/planner core is always swept: plan rewrites are where a
  # subtle bug costs the most, so those files stay tidy-clean regardless
  # of what the commit touched.
  # src/serve and src/obs are always swept too: they are the layers other
  # threads actually run through, where the bugprone/concurrency checks
  # have teeth.
  core="src/engine/logical_builder.cc src/engine/optimizer.cc \
    src/engine/lowering.cc src/plan/logical_plan.cc \
    src/plan/plan_fingerprint.cc src/lint/translation_validator.cc \
    $(find src/serve src/obs src/common -name '*.cc' | sort | tr '\n' ' ')"
  changed=$(git diff --name-only --diff-filter=d HEAD~1 -- \
    'src/*.cc' 'src/**/*.cc' 'tools/*.cc' 'tools/**/*.cc' 2>/dev/null || true)
  # shellcheck disable=SC2086
  sweep=$(printf '%s\n' $changed $core | sort -u)
  # shellcheck disable=SC2086
  tools/run_clang_tidy.sh build $sweep

  echo "=== leg 5: concurrency static analysis ==="
  # Annotation-coverage lint: every lock in src/ is a ranked TrackedMutex,
  # every member of a lock-owning class is BORN_GUARDED_BY or carries an
  # explicit reviewed waiver. Pure Python — runs everywhere.
  python3 tools/check_annotations.py
  # Clang thread-safety analysis over the annotations: proves guarded
  # members are only touched with their lock held. gcc has no equivalent,
  # so this sub-leg skips (with a notice) where clang++ is absent.
  if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-tsa -S . -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_COMPILER=clang++ \
      -DCMAKE_CXX_FLAGS="-Werror=thread-safety -Werror=thread-safety-beta"
    cmake --build build-tsa -j "$(nproc)" --target bornsql_common \
      bornsql_obs bornsql_storage bornsql_engine bornsql_serve
  else
    echo "leg 5: clang++ not installed; skipping -Wthread-safety build"
  fi
fi

echo "ci: all legs passed"
