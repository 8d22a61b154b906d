#!/usr/bin/env bash
# Runs the bench binaries and emits a BENCH_*.json perf snapshot.
#
# Usage:
#   tools/run_bench.sh                       # all benches -> BENCH_<date>.json
#   tools/run_bench.sh --out BENCH_baseline.json bench_micro bench_rewriting
#
# The JSON records, per bench: exit code, wall-clock ms, and the raw
# report lines (the experiment tables are deterministic apart from the
# timing columns). bench_micro is additionally captured in
# google-benchmark's native JSON so later PRs can diff per-counter.
set -euo pipefail

cd "$(dirname "$0")/.."
REPO_ROOT="$PWD"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"

OUT=""
BENCHES=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --out) OUT="$2"; shift 2 ;;
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    -h|--help)
      sed -n '2,10p' "$0"; exit 0 ;;
    *) BENCHES+=("$1"); shift ;;
  esac
done

EXPLICIT_BENCHES=1
if [[ ${#BENCHES[@]} -eq 0 ]]; then
  EXPLICIT_BENCHES=0
  BENCHES=(bench_micro bench_rewriting bench_combined
           bench_recursion_profile bench_tiling bench_ablation
           bench_linearize bench_owl2ql bench_search_cache bench_server
           bench_space bench_streaming bench_warded)
fi
if [[ -z "$OUT" ]]; then
  OUT="BENCH_$(date -u +%Y%m%d).json"
fi

# Make sure the bench targets exist and are current. bench_micro is
# skipped by CMake when google-benchmark is unavailable, so in the
# default (no explicit list) mode a missing target is dropped with a
# warning instead of failing the whole snapshot.
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DVADALOG_BUILD_BENCH=ON >/dev/null
AVAILABLE=()
for bench in "${BENCHES[@]}"; do
  if cmake --build "$BUILD_DIR" -j "$(nproc)" --target "$bench" \
      >/dev/null 2>&1; then
    AVAILABLE+=("$bench")
  elif [[ $EXPLICIT_BENCHES -eq 1 ]]; then
    echo "error: target $bench failed to build" >&2
    exit 1
  else
    echo "warning: skipping $bench (target unavailable)" >&2
  fi
done
BENCHES=("${AVAILABLE[@]}")
if [[ ${#BENCHES[@]} -eq 0 ]]; then
  echo "error: no bench targets built" >&2
  exit 1
fi

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

for bench in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built" >&2
    exit 1
  fi
  echo ">>> $bench" >&2
  # bench_server dumps its metrics registry next to the timing snapshot
  # (METRICS-shaped JSON; convert with tools/vadalog_metrics < file).
  if [[ "$bench" == "bench_server" ]]; then
    export VADALOG_BENCH_METRICS="${OUT%.json}-metrics.json"
  else
    unset VADALOG_BENCH_METRICS
  fi
  start_ns=$(date +%s%N)
  rc=0
  if [[ "$bench" == "bench_micro" ]]; then
    "$bin" --benchmark_format=json \
      >"$TMP_DIR/$bench.json" 2>"$TMP_DIR/$bench.txt" || rc=$?
  else
    "$bin" >"$TMP_DIR/$bench.txt" 2>&1 || rc=$?
  fi
  end_ns=$(date +%s%N)
  echo "$rc $(( (end_ns - start_ns) / 1000000 ))" >"$TMP_DIR/$bench.meta"
done

python3 - "$OUT" "$TMP_DIR" "${BENCHES[@]}" <<'PYEOF'
import json, pathlib, subprocess, sys

out, tmp_dir, benches = sys.argv[1], pathlib.Path(sys.argv[2]), sys.argv[3:]


def git(*args):
    try:
        return subprocess.run(["git", *args], capture_output=True,
                              text=True).stdout.strip()
    except OSError:
        return ""


snapshot = {
    "schema": "vadalog-bench-v1",
    "commit": git("rev-parse", "--short", "HEAD"),
    "date_utc": subprocess.run(["date", "-u", "+%Y-%m-%dT%H:%M:%SZ"],
                               capture_output=True, text=True).stdout.strip(),
    "benches": {},
}
for bench in benches:
    rc, wall_ms = (tmp_dir / f"{bench}.meta").read_text().split()
    entry = {
        "exit_code": int(rc),
        "wall_ms": int(wall_ms),
        "report": (tmp_dir / f"{bench}.txt").read_text().splitlines(),
    }
    micro = tmp_dir / f"{bench}.json"
    if micro.exists():
        entry["google_benchmark"] = json.loads(micro.read_text())
    snapshot["benches"][bench] = entry

pathlib.Path(out).write_text(json.dumps(snapshot, indent=2) + "\n")
failed = [b for b, e in snapshot["benches"].items() if e["exit_code"] != 0]
print(f"wrote {out} ({len(benches)} benches)", file=sys.stderr)
if failed:
    print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
    sys.exit(1)
PYEOF
