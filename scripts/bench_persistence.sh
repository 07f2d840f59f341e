#!/usr/bin/env bash
# Quantifies the index persistence trade-off (docs/persistence.md): what
# --load-index buys over rebuilding the sketch index from FASTA, plus the
# raw serialize/deserialize/disk-load throughput of the JEMIDX1 artifact.
#
# Runs the BM_IndexLoad* family of bench_micro in the Release build with
# repetitions, keeps the median of each series, and writes a summary JSON
# (default: BENCH_persistence.json at the repo root) with the derived
# speedups. Exits non-zero if loading the index is not at least 5x faster
# than rebuilding it.
#
# Usage: scripts/bench_persistence.sh [output.json]
#   JEM_BENCH_REPS     repetitions per benchmark (default 5)
#   JEM_BENCH_MIN_TIME min seconds per repetition (default 0.5)
set -euo pipefail
cd "$(dirname "$0")/.."

REPS="${JEM_BENCH_REPS:-5}"
MIN_TIME="${JEM_BENCH_MIN_TIME:-0.5}"
OUT="${1:-BENCH_persistence.json}"
RAW="build/bench_persistence_raw.json"

cmake -B build -DCMAKE_BUILD_TYPE=Release
cmake --build build --parallel "$(nproc)" --target bench_micro jem_map

# Metrics snapshot of a save+load round trip (docs/observability.md):
# embedded in the summary so the io.index_cache.* counters of the
# measured configuration travel with the numbers.
METRICS="build/bench_persistence_metrics.json"
IDX="build/bench_persistence_demo.idx"
./build/examples/jem_map --demo --save-index "$IDX" \
  --output /dev/null >/dev/null
./build/examples/jem_map --demo --load-index "$IDX" --metrics "$METRICS" \
  --output /dev/null >/dev/null
rm -f "$IDX"

./build/bench/bench_micro \
  --benchmark_filter='^BM_IndexLoad' \
  --benchmark_repetitions="$REPS" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_report_aggregates_only=true \
  --benchmark_out="$RAW" --benchmark_out_format=json

python3 - "$RAW" "$OUT" "$REPS" "$METRICS" <<'PY'
import json
import sys

raw_path, out_path, reps = sys.argv[1], sys.argv[2], int(sys.argv[3])
raw = json.load(open(raw_path))
metrics = json.load(open(sys.argv[4]))

medians = {}
for bench in raw["benchmarks"]:
    if bench.get("aggregate_name") != "median":
        continue
    name = bench["run_name"]
    medians[name] = {
        "cpu_time_ns": bench["cpu_time"],
        "real_time_ns": bench["real_time"],
    }
    for counter in ("items_per_second", "bytes_per_second"):
        if counter in bench:
            medians[name][counter] = bench[counter]

# The rebuild runs on a thread pool and is timed at 1, 2 and 4 threads
# (BM_IndexLoadBuildFromFasta/<threads>/real_time). The baseline is the
# most-threaded series, as JemMapper builds on every hardware thread, and
# every ratio is taken on the wall clock: a pool's work does not show in
# the main thread's CPU time.
rebuild = max((name for name in medians
               if name.startswith("BM_IndexLoadBuildFromFasta/")),
              key=lambda name: int(name.split("/")[1]))

def speedup(baseline, fast):
    return medians[baseline]["real_time_ns"] / medians[fast]["real_time_ns"]

speedups = {
    # The headline: deserialize+validate an artifact vs sketch the same
    # subject set from scratch (what --load-index saves per run).
    "load_from_disk_vs_rebuild": speedup(rebuild, "BM_IndexLoadFromDisk"),
    # In-memory deserialize vs rebuild (excludes file I/O).
    "deserialize_vs_rebuild": speedup(rebuild, "BM_IndexLoadDeserialize"),
    # Artifact write cost relative to a rebuild (how cheap --save-index is).
    "rebuild_vs_serialize": speedup(rebuild, "BM_IndexLoadSerialize"),
}

summary = {
    "generated_by": "scripts/bench_persistence.sh",
    "benchmark_binary": "build/bench/bench_micro",
    "repetitions": reps,
    "aggregate": "median",
    "rebuild_baseline": rebuild,
    "benchmarks": medians,
    "speedups": {k: round(v, 3) for k, v in speedups.items()},
    # Round-trip metrics snapshot: io.index_cache.hits must be 1 here.
    "metrics": metrics["metrics"],
    "acceptance": {
        "criterion": "load_from_disk_vs_rebuild >= 5",
        "pass": speedups["load_from_disk_vs_rebuild"] >= 5,
    },
}

with open(out_path, "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")

print(json.dumps(summary["speedups"], indent=2))
ok = summary["acceptance"]["pass"]
print("persistence acceptance:", "PASS" if ok else "FAIL")
sys.exit(0 if ok else 1)
PY
