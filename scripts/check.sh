#!/usr/bin/env bash
# Full local check: configure, build (warnings-as-errors), run the test
# suite, then every benchmark/table/figure driver. This is what CI runs.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build
cmake --build build --parallel "$(nproc)"
ctest --test-dir build --output-on-failure

# Engine + chaos + serve concurrency tests under ThreadSanitizer: the
# bounded queue, the streaming pipeline and the mpisim exchange are the
# lock-based concurrency in the library (test_mpisim drives the exchange's
# lock and condition variable directly), the chaos suite drives them
# through aborts and drops (docs/robustness.md), and the serve suite runs a
# live MappingServer with concurrent clients (docs/serve.md). The io
# suites ride along: gzip_decompress inflates members on parallel threads,
# and the readers above it parse what those threads wrote. So do the index
# build suites: sketch_subjects sketches subject ranges on a pool, and
# SketchTable::from_entries / FlatSketchIndex::build sort and fill hash
# shards from pool tasks — in every JemMapper and in each distributed rank.
cmake -B build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
  -DJEM_BUILD_BENCH=OFF -DJEM_BUILD_EXAMPLES=OFF
cmake --build build-tsan --parallel "$(nproc)" --target test_engine \
  test_chaos test_obs test_serve test_io test_core test_mpisim
ctest --test-dir build-tsan --output-on-failure \
  -R 'RunSpmd|Allgatherv|Gatherv|AllToAllv|CommStats|StressTest|StagedExecutor|Engine|BoundedQueue|Chaos|FaultPlan|Property|Counter|Gauge|Histogram|Registry|MetricsSnapshot|Tracer|StagedChaosTrace|Window|OpenMetrics|TraceContext|Http|Lru|MappingServ|ServeObservability|ServiceConfig|MapServiceRequest|Cli|Resilience|Gzip|StreamReader|BatchStream|ReadFast|ReadSequences|ParserRobustness|SketchTable|IndexBuild|FlatSketchIndex|Distributed|SketchLanes|LaneModulo'

# The same suites under AddressSanitizer + UndefinedBehaviorSanitizer: the
# fault-injection shutdown paths (worker aborts, queue closes, partial
# drains) are where lifetime bugs would hide. The persistence suites ride
# along (docs/persistence.md): every artifact corruption case — truncation,
# bit rot, torn journal records, stale resume state — must be detected as a
# structured error without tripping ASan/UBSan while parsing hostile bytes.
# So must the parsers: the gzip decoders (zlib's and the whole-member one,
# whose differential suite feeds it flipped, cut and spliced members), the
# CRC-32 fold kernel that checks its trailers (loads at every length and
# offset) and the buffered FASTA/FASTQ reader.
# The query kernels ride along too: the minimizer scan indexes raw window
# blocks and, one segment per lane, loads 8 bytes at a time up to each
# lane's own segment end (MinimizerScan; the engine's segment buffer is
# EndSegments'), the sketch kernels (scalar and lanes) index their prefix minima
# by interval end and mark trial-set words through the row offsets their
# minima carry, the merge's radix sort scatters row ids by byte (SketchKeys,
# SketchLanes, ClassicMinhash), and the output goldens drive
# every mapping mode end to end (OutputGolden). The mapper's fused vote
# pass stores raw home-slot indices, probes the slot regions from them and
# indexes its vote records by posting. The index build fills the slot
# array and postings pool through raw per-trial region pointers. The
# partitioned distributed driver decodes its probe stream by a fixed word
# stride and walks each owner's replies with a per-source cursor.
cmake -B build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
  -DJEM_BUILD_BENCH=OFF -DJEM_BUILD_EXAMPLES=ON
cmake --build build-asan --parallel "$(nproc)" --target test_engine \
  test_chaos test_io test_core test_obs test_serve test_mpisim jem obs_check
ctest --test-dir build-asan --output-on-failure \
  -R 'RunSpmd|Allgatherv|Gatherv|AllToAllv|CommStats|StressTest|StagedExecutor|Engine|BoundedQueue|Chaos|FaultPlan|Property|Xxh64|Artifact|AtomicWriteFile|Checkpoint|MappingOutput|MappingWriter|IndexSerde|Gzip|Inflate|Crc32|Json|Counter|Gauge|Histogram|Registry|MetricsSnapshot|Tracer|StagedChaosTrace|Window|OpenMetrics|TraceContext|Http|Lru|MappingServ|ServeObservability|ServiceConfig|MapServiceRequest|Cli|Resilience|StreamReader|BatchStream|ReadFast|ReadSequences|ParserRobustness|MinimizerScan|EndSegments|SketchByJem|SketchLanes|LaneModulo|ClassicMinhash|MapperTest|SketchKeys|VoteCounter|FlatSketchIndex|SketchTable|IndexBuild|Distributed|OutputGolden'

# Hot-path bench smoke (the default build type is Release): a short run of
# the BM_Hotpath* family catches wiring regressions in the flat-index /
# scratch-kernel benches early. scripts/bench_hotpath.sh does the real
# measurement and writes BENCH_hotpath.json.
./build/bench/bench_micro --benchmark_filter='^BM_Hotpath' \
  --benchmark_min_time=0.02

for b in build/bench/*; do
  if [[ -f "$b" && -x "$b" ]]; then
    echo "== $b =="
    "$b"
  fi
done

for e in quickstart hybrid_scaffold hybrid_pipeline parameter_study; do
  echo "== examples/$e =="
  "./build/examples/$e"
done
./build/examples/jem_map --demo --output /tmp/jem_check.tsv

# Metrics smoke (docs/observability.md): a demo run and a 4-rank
# distributed run must produce a metrics snapshot and a Chrome trace that
# obs_check accepts — parseable JSON, schema fields present, B/E span
# pairs matched on every track.
./build/examples/jem_map --demo --metrics /tmp/jem_check_m.json \
  --trace /tmp/jem_check_t.json --progress --output /tmp/jem_check.tsv
./build/examples/obs_check --metrics /tmp/jem_check_m.json \
  --trace /tmp/jem_check_t.json
./build/examples/jem_map --demo --ranks 4 --metrics /tmp/jem_check_m4.json \
  --trace /tmp/jem_check_t4.json --output /tmp/jem_check.tsv
./build/examples/obs_check --metrics /tmp/jem_check_m4.json \
  --trace /tmp/jem_check_t4.json
grep -q 'distributed.rank3.map_ns' /tmp/jem_check_m4.json
grep -q 'core.hotpath.segments_seen' /tmp/jem_check_m4.json
grep -q 'core.minimizer.lanes' /tmp/jem_check_m.json
grep -q 'core.hotpath.segments_grouped' /tmp/jem_check_m.json
grep -q 'core.sketch.lanes' /tmp/jem_check_m.json
grep -q 'mpisim.allgatherv.rank0.sent_bytes' /tmp/jem_check_m4.json
echo "metrics smoke: ok"

# Serve smoke (docs/serve.md): start an always-on demo server on an
# ephemeral port, hammer it with concurrent clients via `jem probe`,
# validate the /metrics body with obs_check, then require a clean SIGTERM
# drain (exit 0). Runs against the Release build and again under
# ASan/UBSan, where lifetime bugs in the connection/worker shutdown
# ordering would surface.
serve_smoke() {
  local bindir="$1"
  local dir
  dir=$(mktemp -d /tmp/jem_serve_smoke.XXXXXX)
  "$bindir/examples/jem" serve --demo --port 0 --port-file "$dir/port" &
  local serve_pid=$!
  for _ in $(seq 1 200); do
    [[ -s "$dir/port" ]] && break
    sleep 0.05
  done
  if [[ ! -s "$dir/port" ]]; then
    echo "error: jem serve never published its port" >&2
    kill "$serve_pid" 2>/dev/null || true
    return 1
  fi
  "$bindir/examples/jem" probe --port "$(cat "$dir/port")" --demo \
    --requests 24 --clients 6 --healthz-out "$dir/healthz.json" \
    --metrics-out "$dir/metrics.json" \
    --openmetrics-out "$dir/metrics.om" --requests-out "$dir/requests.json"
  "$bindir/examples/obs_check" --metrics "$dir/metrics.json"
  # Content negotiation (docs/observability.md): the same /metrics endpoint
  # must serve JSON by default and valid OpenMetrics text on request, and
  # /debug/requests must return a well-formed flight-recorder dump.
  "$bindir/examples/obs_check" --openmetrics "$dir/metrics.om"
  "$bindir/examples/obs_check" --flight "$dir/requests.json"
  grep -q '"status":"ok"' "$dir/healthz.json"
  grep -q '"slo"' "$dir/healthz.json"
  grep -q 'serve.http.requests' "$dir/metrics.json"
  grep -q 'core.minimizer.lanes' "$dir/metrics.json"
  grep -q 'core.sketch.lanes' "$dir/metrics.json"
  grep -q 'jem_serve_http_requests_total' "$dir/metrics.om"
  grep -q 'jem_serve_slo_latency_ns' "$dir/metrics.om"
  kill -TERM "$serve_pid"
  wait "$serve_pid"
  rm -rf "$dir"
}
echo "== serve smoke (Release) =="
serve_smoke build
echo "== serve smoke (ASan/UBSan) =="
serve_smoke build-asan
echo "serve smoke: ok"

# Serve chaos smoke (docs/serve.md "Failure modes & recovery"): the same
# demo server, now running a seeded fault plan — random connection resets
# and injected latency plus two scripted worker aborts (one on write, one
# on read) — with a hot-swap artifact armed. `jem probe` drives it through
# the resilient client and fires POST /admin/reload mid-load; every request
# must still complete, both scripted aborts must have fired and both
# aborted workers must have restarted in place, the epoch must have
# advanced, and the drain must stay clean.
# Runs against Release and again under ASan/UBSan.
serve_chaos_smoke() {
  local bindir="$1"
  local dir
  dir=$(mktemp -d /tmp/jem_serve_chaos.XXXXXX)
  "$bindir/examples/jem" build-index --demo --output "$dir/demo.jemidx"
  "$bindir/examples/jem" serve --demo --port 0 --port-file "$dir/port" \
    --cache 0 --chaos-seed 7 --chaos-delay 0.05 --chaos-drop 0.08 \
    --chaos-abort-at serve.write:4,serve.read:11 \
    --reload-index "$dir/demo.jemidx" &
  local serve_pid=$!
  for _ in $(seq 1 200); do
    [[ -s "$dir/port" ]] && break
    sleep 0.05
  done
  if [[ ! -s "$dir/port" ]]; then
    echo "error: jem serve (chaos) never published its port" >&2
    kill "$serve_pid" 2>/dev/null || true
    return 1
  fi
  "$bindir/examples/jem" probe --port "$(cat "$dir/port")" --demo \
    --requests 60 --clients 6 --retries 6 \
    --admin-reload "$dir/demo.jemidx" \
    --healthz-out "$dir/healthz.json" --metrics-out "$dir/metrics.json"
  "$bindir/examples/obs_check" --metrics "$dir/metrics.json"
  grep -q 'serve.chaos.injected.reset' "$dir/metrics.json"
  grep -q 'serve.supervisor.worker_restarts' "$dir/metrics.json"
  grep -Eq '"name":"serve.chaos.injected.abort","kind":"counter","unit":"count","value":([2-9]|[1-9][0-9]+)[,}]' \
    "$dir/metrics.json"
  grep -q 'serve.reload.success' "$dir/metrics.json"
  grep -q '"status":"ok"' "$dir/healthz.json"
  grep -q '"epoch":1' "$dir/healthz.json"
  grep -Eq '"worker_restarts":([2-9]|[1-9][0-9])' "$dir/healthz.json"
  kill -TERM "$serve_pid"
  wait "$serve_pid"
  rm -rf "$dir"
}
echo "== serve chaos smoke (Release) =="
serve_chaos_smoke build
echo "== serve chaos smoke (ASan/UBSan) =="
serve_chaos_smoke build-asan
echo "serve chaos smoke: ok"

# Subcommand-shim golden (docs/serve.md): the legacy jem_map entry point is
# a shim over `jem map`; a demo run through each must produce byte-identical
# mappings.
./build/examples/jem_map --demo --output /tmp/jem_check_shim.tsv
./build/examples/jem map --demo --output /tmp/jem_check_sub.tsv
cmp /tmp/jem_check_shim.tsv /tmp/jem_check_sub.tsv
echo "shim golden: byte-identical"

# Index save/load round trip (docs/persistence.md): a demo run that saves
# the index and one that loads it must write byte-identical mappings, and
# the second run must say it loaded the artifact — a loader that rejected
# every artifact would fall back to a rebuild and still match.
./build/examples/jem_map --demo --save-index /tmp/jem_check.jemidx \
  --output /tmp/jem_check_save.tsv
./build/examples/jem_map --demo --load-index /tmp/jem_check.jemidx \
  --output /tmp/jem_check_load.tsv 2> /tmp/jem_check_load.log
cmp /tmp/jem_check_save.tsv /tmp/jem_check_load.tsv
grep -q 'loaded sketch index' /tmp/jem_check_load.log
rm -f /tmp/jem_check.jemidx
echo "index round trip: byte-identical, artifact loaded"

# Streamed and kill-and-resume smoke (docs/persistence.md): a plain
# streamed run writes through the same per-batch output path as a
# checkpointed one and must match the in-memory golden, leaving no
# .partial. Then SIGKILL a checkpointed streaming run mid-flight, resume
# it, and require the published output to be byte-identical to an
# uninterrupted run. If the kill happens to land after completion the
# resume exercises the journal-gone full-re-run fallback instead — either
# way the diff must be empty.
SMOKE=/tmp/jem_ckpt_smoke
rm -rf "$SMOKE" && mkdir -p "$SMOKE"
./build/examples/make_dataset --preset "E. coli" --prefix "$SMOKE/ds" \
  --cap-bp 300000
./build/examples/jem_map --subjects "$SMOKE/ds_contigs.fa" \
  --queries "$SMOKE/ds_reads.fq.gz" --output "$SMOKE/golden.tsv"
./build/examples/jem_map --subjects "$SMOKE/ds_contigs.fa" \
  --queries "$SMOKE/ds_reads.fq.gz" --output "$SMOKE/streamed.tsv" \
  --batch 20 --threads 3
cmp "$SMOKE/golden.tsv" "$SMOKE/streamed.tsv"
test ! -e "$SMOKE/streamed.tsv.partial"
echo "streamed smoke: byte-identical, no .partial left"
./build/examples/jem_map --subjects "$SMOKE/ds_contigs.fa" \
  --queries "$SMOKE/ds_reads.fq.gz" --output "$SMOKE/out.tsv" \
  --batch 20 --checkpoint "$SMOKE/run.ckpt" &
JEM_PID=$!
sleep 0.05
kill -9 "$JEM_PID" 2>/dev/null || true
wait "$JEM_PID" 2>/dev/null || true
./build/examples/jem_map --subjects "$SMOKE/ds_contigs.fa" \
  --queries "$SMOKE/ds_reads.fq.gz" --output "$SMOKE/out.tsv" \
  --batch 20 --checkpoint "$SMOKE/run.ckpt" --resume
diff "$SMOKE/golden.tsv" "$SMOKE/out.tsv"
echo "kill-and-resume smoke: byte-identical"
rm -rf "$SMOKE"
echo "ALL CHECKS PASSED"
