#!/usr/bin/env bash
# Quantifies the allocation-free query hot path (reusable sketch scratch +
# batched, prefetched flat-index probes) against the pre-overhaul
# allocating path (deque sketch kernel, one single-key lookup per k-mer).
#
# Runs the BM_Hotpath* family of bench_micro in the Release build with
# repetitions, keeps the median of each series, and writes a summary JSON
# (default: BENCH_hotpath.json at the repo root) with the derived speedups.
# Exits non-zero if the end-to-end map_segment speedup drops below 1.5x, or
# if the minimizer scan costs over 1.5x more per base on tandem repeats
# than on distinct tiles (the linear-worst-case guard). The subject-sketch
# speedup over the deque kernel, the minimizer scan's and both sketch
# shapes' speedups over their scalar loops (the lane kernels this host
# dispatches to), and the one-segment-per-lane scan's and batched map's
# speedups over one segment at a time are recorded without a gate.
#
# Usage: scripts/bench_hotpath.sh [output.json]
#   JEM_BENCH_REPS     repetitions per benchmark (default 5)
#   JEM_BENCH_MIN_TIME min seconds per repetition (default 0.5)
set -euo pipefail
cd "$(dirname "$0")/.."

REPS="${JEM_BENCH_REPS:-5}"
MIN_TIME="${JEM_BENCH_MIN_TIME:-0.5}"
OUT="${1:-BENCH_hotpath.json}"
RAW="build/bench_hotpath_raw.json"

cmake -B build -DCMAKE_BUILD_TYPE=Release
cmake --build build --parallel "$(nproc)" --target bench_micro jem_map

# Metrics snapshot of a demo run (docs/observability.md): embedded in the
# summary so a regression report carries its own hot-path counters
# (sketch hit rate, probe lengths, candidates per segment).
METRICS="build/bench_hotpath_metrics.json"
./build/examples/jem_map --demo --metrics "$METRICS" \
  --output /dev/null >/dev/null

./build/bench/bench_micro \
  --benchmark_filter='^BM_Hotpath' \
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
    for rate in ("items_per_second", "bytes_per_second"):
        if rate in bench:
            medians[name][rate] = bench[rate]

def speedup(baseline, fast):
    return medians[baseline]["cpu_time_ns"] / medians[fast]["cpu_time_ns"]

def rate_speedup(baseline, fast, rate):
    return medians[fast][rate] / medians[baseline][rate]

speedups = {
    # Segment sketching: pre-overhaul deque kernel vs reusable scratch.
    "sketch_scratch_vs_reference":
        speedup("BM_HotpathSketchReference", "BM_HotpathSketchScratch"),
    # Segment sketching: current allocating API vs reusable scratch.
    "sketch_scratch_vs_alloc":
        speedup("BM_HotpathSketchAlloc", "BM_HotpathSketchScratch"),
    # End-to-end query mapping: pre-overhaul alloc path vs hot path.
    "map_segment_hot_vs_reference":
        speedup("BM_HotpathMapSegmentReference", "BM_HotpathMapSegment"),
    # Subject sketching (~50 kbp contigs, many blocks): pre-overhaul deque
    # kernel vs the block kernel. Recorded, not gated.
    "subject_sketch_vs_reference":
        speedup("BM_HotpathSubjectSketchReference",
                "BM_HotpathSubjectSketch"),
    # Minimizer scan on the same tiles: the scalar loop vs the kernel this
    # host dispatches to (metrics' core.minimizer.lanes). Recorded, not
    # gated.
    "minimizer_scan_lanes_vs_scalar":
        speedup("BM_HotpathMinimizerScanScalar", "BM_HotpathMinimizerScan"),
    # The same tiles scanned one per lane, L at a time
    # (minimizer_scan_many), vs one tile split across the lanes; per base.
    # Recorded, not gated.
    "minimizer_scan_many_vs_single":
        rate_speedup("BM_HotpathMinimizerScan", "BM_HotpathMinimizerScanMany",
                     "bytes_per_second"),
    # Tiles mapped through the batched entry 64 at a time vs one at a time
    # (map_segment's path); per tile. Recorded, not gated.
    "map_segments_batched_vs_single":
        rate_speedup("BM_HotpathMapSegments/1", "BM_HotpathMapSegments/64",
                     "items_per_second"),
    # The JEM sketch of query tiles (one block) and of subject contigs
    # (many blocks): the per-trial scalar loop vs the trial-parallel kernel
    # this host dispatches to (metrics' core.sketch.lanes). Recorded, not
    # gated.
    "sketch_lanes_vs_scalar":
        speedup("BM_HotpathSuffixSketchScalar", "BM_HotpathSuffixSketch"),
    "subject_sketch_lanes_vs_scalar":
        speedup("BM_HotpathSubjectSketchScalar", "BM_HotpathSubjectSketch"),
}

# Scan cost per base on 1 kbp of poly-A / (AC)n over that on distinct
# tiles: tied minima in every window must not make the scan superlinear.
scan_repeat_vs_distinct = (
    medians["BM_HotpathMinimizerScan"]["bytes_per_second"] /
    medians["BM_HotpathMinimizerScanRepeat"]["bytes_per_second"])

summary = {
    "generated_by": "scripts/bench_hotpath.sh",
    "benchmark_binary": "build/bench/bench_micro",
    "repetitions": reps,
    "aggregate": "median",
    "benchmarks": medians,
    "speedups": {k: round(v, 3) for k, v in speedups.items()},
    "engine_segments_per_second": round(
        medians["BM_HotpathEngineSegmentsPerSec"]["items_per_second"], 1),
    # Demo-run metrics snapshot (docs/observability.md): the hot-path
    # counters that explain a throughput shift (hit rate, probe lengths).
    "metrics": metrics["metrics"],
    "scan_repeat_vs_distinct_per_base": round(scan_repeat_vs_distinct, 3),
    "acceptance": {
        "criterion": "map_segment_hot_vs_reference >= 1.5",
        "pass": speedups["map_segment_hot_vs_reference"] >= 1.5,
        "linear_scan_criterion": "scan_repeat_vs_distinct_per_base <= 1.5",
        "linear_scan_pass": scan_repeat_vs_distinct <= 1.5,
    },
}

with open(out_path, "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")

print(json.dumps(summary["speedups"], indent=2))
print("scan_repeat_vs_distinct_per_base:",
      summary["scan_repeat_vs_distinct_per_base"])
ok = (summary["acceptance"]["pass"] and
      summary["acceptance"]["linear_scan_pass"])
print("hot-path acceptance:", "PASS" if ok else "FAIL")
sys.exit(0 if ok else 1)
PY
