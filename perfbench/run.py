#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

Builds the jembench program from the checkout's sources, generates the seeded
inputs once per seed, runs one workload and prints one JSON result line as
the last line of standard output. See README.md in this directory.

    python3 perfbench/run.py --workload map-ends-gz --seed 1 --seconds 10 --trace 0
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(ROOT, ".bench_data")

WORKLOADS = ["map-ends-gz", "map-tiled"]
END_TO_END = ["setup_s", "map_wall_s", "throughput_per_s", "cpu_ms_per_op",
              "peak_rss_mb", "precision", "recall"]
PER_LAYER = [
    "io.inflate_ms", "io.inflate_mb_per_s", "io.parse_ms", "io.parse_records",
    "io.emit_ms",
    "core.index.build_ms", "core.index.entries", "core.index.load_ms",
    "core.index.artifact_mb",
    "core.minimizer.ns", "core.sketch.ns", "core.lookup.ns",
    "core.lookup.hit_ratio", "core.vote.ns", "core.map_segment.ns",
    "core.candidates_per_segment",
    "engine.read_s", "engine.map_cpu_s", "engine.queue_wait_s",
    "engine.worker_busy_share",
    "serve.queue_wait_us", "serve.map_us", "serve.serialize_us",
    "serve.handler_other_us", "serve.transport_us", "serve.batch.mean_size",
    "serve.cache.hit_ratio", "serve.shed", "serve.reload_ms",
    "gen.lag_p90_ms", "trace.unaccounted_pct", "trace.overhead_pct",
]
KEEP_DATASETS = 2      # generated seeds kept
RUN_BUDGET_S = 165     # everything after the build


class BenchError(Exception):
    pass


def log(message):
    print("[perfbench] " + message, file=sys.stderr, flush=True)


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run budget exhausted")
    return left


def run(cmd, timeout, capture=False):
    """Runs cmd; its stdout goes to stderr unless captured."""
    result = subprocess.run(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                            text=True, timeout=timeout)
    if result.returncode != 0:
        raise BenchError("%s exited with %d" % (" ".join(cmd[:2]), result.returncode))
    return result.stdout


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        raise BenchError("repository sources not found beside perfbench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run(cmd, timeout=300)
    run(["cmake", "--build", build_dir, "--target", "jembench", "--parallel", "4"],
        timeout=840)
    return os.path.join(build_dir, "jembench")


def dataset(jembench, seed, deadline):
    """The generated inputs of a seed, made once and reused. They are plain
    FASTA, gzip FASTQ and truth TSV; nothing built from them is cached."""
    path = os.path.join(DATA, "seed-%d" % seed)
    if not os.path.isfile(os.path.join(path, "done")):
        shutil.rmtree(path, ignore_errors=True)
        tmp = path + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        started = time.monotonic()
        run([jembench, "gen", "--seed", str(seed), "--dir", tmp],
            timeout=remaining(deadline))
        open(os.path.join(tmp, "done"), "w").close()
        os.rename(tmp, path)
        # Write the new files back now, not while a workload is measured.
        os.sync()
        log("generated the inputs of seed %d in %.1f s"
            % (seed, time.monotonic() - started))
    os.utime(path)
    others = sorted((os.path.join(DATA, name) for name in os.listdir(DATA)
                     if name.startswith("seed-") and not name.endswith(".tmp")),
                    key=os.path.getmtime, reverse=True)
    for stale in others[KEEP_DATASETS:]:
        shutil.rmtree(stale, ignore_errors=True)
    return path


def last_json(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchError("no result line")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        jembench = build()
        deadline = time.monotonic() + RUN_BUDGET_S
        os.makedirs(DATA, exist_ok=True)
        data = dataset(jembench, args.seed, deadline)
        result = last_json(run([jembench, "map", "--workload", args.workload,
                                "--data", data, "--seconds", str(args.seconds),
                                "--trace", str(args.trace), "--seed", str(args.seed)],
                               timeout=remaining(deadline), capture=True))
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log("error: %s" % error)
        return 1
    names = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in names if name not in result["metrics"]]
    if missing:
        log("error: metrics missing from the run (%d of %d operations failed): %s"
            % (result["failed"], result["attempted"], ", ".join(missing)))
        return 1
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: result["metrics"][name] for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
