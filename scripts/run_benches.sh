#!/usr/bin/env bash
# Runs the access-path benchmarks (bench_tc: transitive closure across the
# three engines; bench_engines: the B-workload suite) in Release mode and
# distills the google-benchmark JSON into BENCH_tc.json — one record per
# measurement: {workload, n, engine, strategy, wall_ms, rows}.
# bench_storage (B11 durability overhead, B12 recovery vs checkpoint
# fallback depth) is distilled separately into BENCH_storage.json.
#
# Usage:
#   scripts/run_benches.sh            # full sweep (minutes)
#   scripts/run_benches.sh --smoke    # small-n subset for CI (seconds)
#
# BUILD_DIR overrides the build tree (default: <repo>/build).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
OUT="${BENCH_OUT:-$ROOT/BENCH_tc.json}"
STORAGE_OUT="${BENCH_STORAGE_OUT:-$ROOT/BENCH_storage.json}"

SMOKE=0
if [ "${1:-}" = "--smoke" ]; then
  SMOKE=1
fi

cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" --target bench_tc bench_engines bench_storage \
  -j"$(nproc)" >/dev/null

# A tiny min_time keeps the heavyweight closure points at ~1 iteration;
# google-benchmark still reports stable real_time per iteration.
COMMON_ARGS=(--benchmark_format=json --benchmark_min_time=0.001)
TC_FILTER=()
ENGINES_FILTER=()
if [ "$SMOKE" = 1 ]; then
  # The smoke subset also carries one selective-goal pair (goal-directed
  # vs whole-program at the same point) so CI watches the magic-set path.
  TC_FILTER=(--benchmark_filter='/(16|32)$|ChainGoalDirected/256/0/[01]$')
  ENGINES_FILTER=(--benchmark_filter='/(8|64)$')
fi

TC_JSON="$(mktemp)"
ENGINES_JSON="$(mktemp)"
STORAGE_JSON="$(mktemp)"
trap 'rm -f "$TC_JSON" "$ENGINES_JSON" "$STORAGE_JSON"' EXIT

"$BUILD/bench/bench_tc" "${COMMON_ARGS[@]}" "${TC_FILTER[@]}" \
  >"$TC_JSON"
"$BUILD/bench/bench_engines" "${COMMON_ARGS[@]}" "${ENGINES_FILTER[@]}" \
  >"$ENGINES_JSON"
"$BUILD/bench/bench_storage" "${COMMON_ARGS[@]}" >"$STORAGE_JSON"

# Each distiller writes its records, then exits non-zero if any series
# reported an error (google-benchmark's error_occurred), so a failing
# series fails the run; both distillers run either way.
STATUS=0

python3 - "$TC_JSON" "$ENGINES_JSON" "$OUT" <<'EOF' || STATUS=1
import json
import re
import sys

tc_path, engines_path, out_path = sys.argv[1:4]

records = []
errors = []

def wall_ms(b):
    unit = b.get("time_unit", "ns")
    scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[unit]
    return round(b["real_time"] * scale, 3)

# bench_tc names: BM_<Engine><Workload><Strategy>/<n>
tc_name = re.compile(
    r"BM_(Logres|Algres|Datalog)(Chain|Random|Forest|ScaleFree)"
    r"(SemiNaive|Naive)/(\d+)")
# Value-interner ablation: BM_<Engine><Wl>Interned[Noninf]/<n>/<intern>.
tc_interned = re.compile(
    r"BM_(Logres|Algres)(Chain|ScaleFree|Reach)Interned(Noninf)?"
    r"/(\d+)/([01])")
# Goal-directed point queries: BM_<Engine><Wl>GoalDirected/<n>/<sel>/<gd>.
# sel encodes the bound source's selectivity (0 = ~1 node, 1 = ~1%,
# 100 = the longest single-source cone); gd=0 is the whole-program
# baseline. rows is the answer count; the cone-vs-closure work shows in
# wall_ms.
tc_goal = re.compile(
    r"BM_(Logres|Algres)(Chain|ScaleFree)GoalDirected"
    r"/(\d+)/(\d+)/([01])")

def workload_key(workload):
    return "scale_free" if workload == "ScaleFree" else workload.lower()

for b in json.load(open(tc_path))["benchmarks"]:
    if b.get("error_occurred"):
        errors.append(f'{b["name"]}: {b.get("error_message", "")}')
    m = tc_name.fullmatch(b["name"])
    if m:
        engine, workload, strategy, n = m.groups()
        records.append({
            "workload": workload_key(workload),
            "n": int(n),
            "engine": engine.lower(),
            "strategy": "semi_naive" if strategy == "SemiNaive" else "naive",
            "wall_ms": wall_ms(b),
            "rows": int(b.get("tc_tuples", 0)),
        })
        continue
    m = tc_interned.fullmatch(b["name"])
    if m:
        engine, workload, noninf, n, intern = m.groups()
        strategy = "interned" if intern == "1" else "uninterned"
        if noninf:
            strategy += "_noninf"
        records.append({
            "workload": workload_key(workload),
            "n": int(n),
            "engine": engine.lower(),
            "strategy": strategy,
            "wall_ms": wall_ms(b),
            "rows": int(b.get("tc_tuples", 0)),
        })
        continue
    m = tc_goal.fullmatch(b["name"])
    if m:
        engine, workload, n, sel, gd = m.groups()
        strategy = ("goal_directed_sel" if gd == "1" else
                    "goal_whole_sel") + sel
        records.append({
            "workload": workload_key(workload),
            "n": int(n),
            "engine": engine.lower(),
            "strategy": strategy,
            "wall_ms": wall_ms(b),
            "rows": int(b.get("tc_tuples", 0)),
        })
        continue

# bench_engines names: BM_B<k>_<Variant>/<n>
eng_name = re.compile(r"BM_(B\d+)_(\w+)/(\d+)")
for b in json.load(open(engines_path))["benchmarks"]:
    if b.get("error_occurred"):
        errors.append(f'{b["name"]}: {b.get("error_message", "")}')
    m = eng_name.fullmatch(b["name"])
    if not m:
        continue
    workload, variant, n = m.groups()
    records.append({
        "workload": workload,
        "n": int(n),
        "engine": variant,
        "strategy": "",
        "wall_ms": wall_ms(b),
        "rows": int(b.get("tc_tuples", b.get("facts", 0))),
    })

json.dump(records, open(out_path, "w"), indent=2)
print(f"wrote {len(records)} records to {out_path}")
for e in errors:
    print(f"benchmark error: {e}", file=sys.stderr)
sys.exit(1 if errors else 0)
EOF

python3 - "$STORAGE_JSON" "$STORAGE_OUT" <<'EOF' || STATUS=1
import json
import re
import sys

storage_path, out_path = sys.argv[1:3]

def wall_ms(b):
    unit = b.get("time_unit", "ns")
    scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[unit]
    return round(b["real_time"] * scale, 3)

# bench_storage names: BM_B<k>_<Variant>[/<arg>]. The arg is the journal
# length for B11_Checkpoint/B11_RecoverReplay and the checkpoint fallback
# depth (corrupt generations the recovery ladder must reject) for
# B12_RecoverFallback.
name = re.compile(r"BM_(B\d+)_(\w+?)(?:/(\d+))?")
records = []
errors = []
for b in json.load(open(storage_path))["benchmarks"]:
    if b.get("error_occurred"):
        errors.append(f'{b["name"]}: {b.get("error_message", "")}')
    m = name.fullmatch(b["name"])
    if not m:
        continue
    workload, variant, arg = m.groups()
    records.append({
        "workload": workload,
        "variant": variant,
        "n": int(arg) if arg is not None else 0,
        "wall_ms": wall_ms(b),
    })

json.dump(records, open(out_path, "w"), indent=2)
print(f"wrote {len(records)} records to {out_path}")
for e in errors:
    print(f"benchmark error: {e}", file=sys.stderr)
sys.exit(1 if errors else 0)
EOF

exit "$STATUS"
