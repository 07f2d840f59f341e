// Micro-benchmarks (google-benchmark) for the hot kernels of the library:
// k-mer codec, minimizer scan, hash family, JEM sketch (fast vs the literal
// Algorithm 1 loop — the interval-resolution ablation), classical MinHash,
// sketch-table operations, single-segment mapping, the mpisim allgatherv,
// and the alignment kernels.
#include <benchmark/benchmark.h>

#include <zlib.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "align/banded.hpp"
#include "baseline/mashmap_like.hpp"
#include "baseline/minimap_like.hpp"
#include "core/index_serde.hpp"
#include "core/jem.hpp"
#include "core/minimizer_lanes.hpp"
#include "core/sketch_lanes.hpp"
#include "io/artifact.hpp"
#include "io/crc32.hpp"
#include "io/gzip.hpp"
#include "io/stream_reader.hpp"
#include "mpisim/communicator.hpp"
#include "oracle/kernels.hpp"
#include "sim/genome.hpp"
#include "sim/hifi_reads.hpp"
#include "util/prng.hpp"

namespace {

using namespace jem;

std::string random_dna(std::uint64_t seed, std::size_t length) {
  util::Xoshiro256ss rng(seed);
  std::string seq(length, 'A');
  for (char& c : seq) {
    c = core::code_base(static_cast<std::uint8_t>(rng.bounded(4)));
  }
  return seq;
}

void BM_KmerEncode(benchmark::State& state) {
  const core::KmerCodec codec(16);
  const std::string seq = random_dna(1, 1000);
  for (auto _ : state) {
    for (std::size_t i = 0; i + 16 <= seq.size(); i += 16) {
      benchmark::DoNotOptimize(codec.encode(std::string_view(seq).substr(i)));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(seq.size() / 16));
}
BENCHMARK(BM_KmerEncode);

void BM_KmerReverseComplement(benchmark::State& state) {
  const core::KmerCodec codec(16);
  util::Xoshiro256ss rng(2);
  std::vector<core::KmerCode> codes(1024);
  for (auto& code : codes) code = rng() & codec.mask();
  for (auto _ : state) {
    for (core::KmerCode code : codes) {
      benchmark::DoNotOptimize(codec.reverse_complement(code));
    }
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_KmerReverseComplement);

void BM_MinimizerScan(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  const std::string seq = random_dna(3, 100'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::minimizer_scan(seq, {16, w}));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(seq.size()));
}
BENCHMARK(BM_MinimizerScan)->Arg(10)->Arg(100)->Arg(1000);

void BM_LcgHashFamily(benchmark::State& state) {
  const core::HashFamily hashes(30, 4);
  util::Xoshiro256ss rng(5);
  std::vector<core::KmerCode> codes(256);
  for (auto& code : codes) code = rng() & 0xffffffffu;
  for (auto _ : state) {
    for (core::KmerCode code : codes) {
      for (int t = 0; t < 30; ++t) {
        benchmark::DoNotOptimize(hashes.hash(t, code));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * 256 * 30);
}
BENCHMARK(BM_LcgHashFamily);

// Interval-resolution ablation on one 50 kbp subject: the block-decomposed
// interval-minimum kernel vs the literal per-interval argmin of
// Algorithm 1.
void BM_SketchByJemFast(benchmark::State& state) {
  const std::string seq = random_dna(6, 50'000);
  const auto minimizers = core::minimizer_scan(seq, {16, 100});
  const core::HashFamily hashes(30, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sketch_by_jem(minimizers, 1000, hashes));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(minimizers.size()));
}
BENCHMARK(BM_SketchByJemFast);

void BM_SketchByJemNaive(benchmark::State& state) {
  const std::string seq = random_dna(6, 50'000);
  const auto minimizers = core::minimizer_scan(seq, {16, 100});
  const core::HashFamily hashes(30, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        oracle::sketch_by_jem_naive(minimizers, 1000, hashes));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(minimizers.size()));
}
BENCHMARK(BM_SketchByJemNaive);

void BM_ClassicMinhash(benchmark::State& state) {
  const std::string seq = random_dna(8, 10'000);
  const core::HashFamily hashes(30, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::classic_minhash(seq, 16, hashes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(seq.size()));
}
BENCHMARK(BM_ClassicMinhash);

void BM_MapSegment(benchmark::State& state) {
  const std::string genome = random_dna(12, 200'000);
  io::SequenceSet subjects;
  for (int i = 0; i < 40; ++i) {
    subjects.add("c" + std::to_string(i),
                 genome.substr(static_cast<std::size_t>(i) * 5000, 5000));
  }
  core::MapParams params;
  params.seed = 13;
  const core::JemMapper mapper(subjects, params);
  core::MapScratch scratch(subjects.size());
  const std::string segment = genome.substr(101'000, 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.map_segment(segment, scratch));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MapSegment);

// Whole-set mapping through the engine's batched pool backend.
struct EngineBenchData {
  io::SequenceSet subjects;
  io::SequenceSet reads;
};

const EngineBenchData& engine_bench_data() {
  static const EngineBenchData data = [] {
    EngineBenchData d;
    const std::string genome = random_dna(21, 400'000);
    for (int i = 0; i < 40; ++i) {
      d.subjects.add(
          "c" + std::to_string(i),
          genome.substr(static_cast<std::size_t>(i) * 10'000, 10'000));
    }
    util::Xoshiro256ss rng(22);
    for (int r = 0; r < 96; ++r) {
      const std::size_t length = 4000 + rng.bounded(8000);
      const std::size_t start = rng.bounded(genome.size() - length);
      d.reads.add("r" + std::to_string(r), genome.substr(start, length));
    }
    return d;
  }();
  return data;
}

void BM_EngineMapReads(benchmark::State& state) {
  const EngineBenchData& data = engine_bench_data();
  const core::MapParams params{.seed = 23};
  params.validate();
  const core::MappingEngine engine(data.subjects, params);
  core::MapRequest request;
  request.backend = core::MapBackend::kPool;
  request.threads = static_cast<std::size_t>(state.range(0));
  std::int64_t mapped = 0;
  for (auto _ : state) {
    const core::MapReport report = engine.run(data.reads, request);
    mapped = static_cast<std::int64_t>(report.mappings.size());
    benchmark::DoNotOptimize(mapped);
  }
  state.SetItemsProcessed(state.iterations() * mapped);
}
BENCHMARK(BM_EngineMapReads)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- Query hot-path benches -------------------------------------------
// The BM_Hotpath* family quantifies the scratch-reuse, batched-probe query
// path against the pre-overhaul allocating path (deque sketch kernel,
// single-key lookups) at the paper's parameters (k=16, w=100, T=30,
// l=1000). scripts/bench_hotpath.sh runs
// exactly this family and records the speedups in BENCH_hotpath.json.

struct HotpathData {
  io::SequenceSet subjects;
  io::SequenceSet reads;
  std::vector<std::string> segments;
  core::MapParams params;
};

const HotpathData& hotpath_data() {
  static const HotpathData data = [] {
    HotpathData d;
    d.params = core::MapParams{.seed = 41};  // paper defaults
    d.params.validate();
    const std::string genome = random_dna(40, 600'000);
    for (int i = 0; i < 60; ++i) {
      d.subjects.add(
          "c" + std::to_string(i),
          genome.substr(static_cast<std::size_t>(i) * 10'000, 10'000));
    }
    util::Xoshiro256ss rng(42);
    for (int s = 0; s < 64; ++s) {
      const std::size_t start = rng.bounded(genome.size() - 1000);
      d.segments.push_back(genome.substr(start, 1000));
    }
    for (int r = 0; r < 48; ++r) {
      const std::size_t length = 5000 + rng.bounded(5000);
      const std::size_t start = rng.bounded(genome.size() - length);
      d.reads.add("r" + std::to_string(r), genome.substr(start, length));
    }
    return d;
  }();
  return data;
}

const core::JemMapper& hotpath_mapper() {
  static const core::JemMapper mapper(hotpath_data().subjects,
                                      hotpath_data().params);
  return mapper;
}

/// A realistic frozen table plus a query key mix (~2/3 hits) shared by the
/// lookup benches.
struct HotpathIndexData {
  core::SketchTable table{30};
  std::vector<core::KmerCode> queries;

  HotpathIndexData() {
    util::Xoshiro256ss rng(43);
    std::vector<core::KmerCode> keys(200'000);
    std::vector<core::SketchEntry> entries(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = rng();
      entries[i] = {keys[i], static_cast<std::uint32_t>(i % 30),
                    static_cast<io::SeqId>(rng.bounded(500))};
    }
    table = core::SketchTable::from_entries(30, entries);
    for (int i = 0; i < 10'000; ++i) {
      queries.push_back(rng.bounded(3) == 0 ? rng()
                                            : keys[rng.bounded(keys.size())]);
    }
  }
};

const HotpathIndexData& hotpath_index_data() {
  static const HotpathIndexData data;
  return data;
}

void BM_HotpathFlatIndexLookup(benchmark::State& state) {
  const HotpathIndexData& data = hotpath_index_data();
  const core::FlatSketchIndex& index = data.table.flat();
  for (auto _ : state) {
    for (std::size_t i = 0; i < data.queries.size(); ++i) {
      benchmark::DoNotOptimize(
          index.lookup(static_cast<int>(i % 30), data.queries[i]));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.queries.size()));
}
BENCHMARK(BM_HotpathFlatIndexLookup);

void BM_HotpathFlatIndexLookupMany(benchmark::State& state) {
  const HotpathIndexData& data = hotpath_index_data();
  const core::FlatSketchIndex& index = data.table.flat();
  std::vector<std::span<const io::SeqId>> out(data.queries.size());
  for (auto _ : state) {
    for (int t = 0; t < 30; ++t) {
      index.lookup_many(t, data.queries, out);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 30 *
                          static_cast<std::int64_t>(data.queries.size()));
}
BENCHMARK(BM_HotpathFlatIndexLookupMany);

void BM_HotpathSketchReference(benchmark::State& state) {
  const HotpathData& data = hotpath_data();
  const core::HashFamily hashes(data.params.trials, data.params.seed);
  const core::MinimizerParams mp{data.params.k, data.params.w,
                                 data.params.ordering};
  std::size_t i = 0;
  for (auto _ : state) {
    const core::Sketch sketch = oracle::sketch_by_jem_reference(
        core::minimizer_scan(data.segments[i], mp),
        data.params.segment_length, hashes);
    benchmark::DoNotOptimize(sketch.total_entries());
    i = (i + 1) % data.segments.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotpathSketchReference);

void BM_HotpathSketchAlloc(benchmark::State& state) {
  const HotpathData& data = hotpath_data();
  const core::HashFamily hashes(data.params.trials, data.params.seed);
  std::size_t i = 0;
  for (auto _ : state) {
    const core::Sketch sketch = core::make_sketch(
        data.segments[i], data.params, core::SketchScheme::kJem, hashes);
    benchmark::DoNotOptimize(sketch.total_entries());
    i = (i + 1) % data.segments.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotpathSketchAlloc);

void BM_HotpathSketchScratch(benchmark::State& state) {
  const HotpathData& data = hotpath_data();
  const core::HashFamily hashes(data.params.trials, data.params.seed);
  core::SketchScratch scratch;
  core::FlatSketch sketch;
  std::size_t i = 0;
  for (auto _ : state) {
    core::make_sketch(data.segments[i], data.params,
                      core::SketchScheme::kJem, hashes, scratch, sketch);
    benchmark::DoNotOptimize(sketch.total_entries());
    i = (i + 1) % data.segments.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotpathSketchScratch);

// ---- Kernel layers: minimizer scan and suffix-minima sketch ----------
// Each iteration handles one 1 kbp tile. The tiles are distinct: a bench
// that cycles a few segments lets the branch predictor learn them and
// under-reports the cost of a data-dependent kernel.

const std::vector<std::string>& scan_tiles() {
  static const std::vector<std::string> tiles = [] {
    sim::GenomeParams genome;
    genome.length = 600'000;
    genome.repeat_fraction = 0.28;
    genome.seed = 44;
    sim::HiFiParams hifi;
    hifi.coverage = 4.0;
    hifi.seed = 45;
    const io::SequenceSet reads =
        sim::simulate_hifi_reads(sim::simulate_genome(genome), hifi).reads;
    std::vector<std::string> out;
    for (io::SeqId id = 0; id < reads.size(); ++id) {
      for (const core::EndSegment& tile :
           core::extract_tiled_segments(id, reads.bases(id), 1000)) {
        out.emplace_back(tile.bases);
      }
    }
    return out;
  }();
  return tiles;
}

/// Scans the tiles in turn on the kernel of `lanes`.
void scan_tiles_on(benchmark::State& state, int lanes) {
  const std::vector<std::string>& tiles = scan_tiles();
  const core::MapParams params = hotpath_data().params;
  const core::MinimizerParams mp{params.k, params.w, params.ordering};
  core::MinimizerScratch scratch;
  std::vector<core::Minimizer> out;
  std::size_t i = 0;
  std::int64_t bases = 0;
  for (auto _ : state) {
    core::detail::minimizer_scan_with(lanes, tiles[i], mp, scratch, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    bases += static_cast<std::int64_t>(tiles[i].size());
    i = (i + 1) % tiles.size();
  }
  state.SetBytesProcessed(bases);
  state.SetLabel(std::to_string(tiles.size()) + " distinct tiles, " +
                 std::to_string(lanes) + " lanes");
}

// The kernel minimizer_scan dispatches to on this host.
void BM_HotpathMinimizerScan(benchmark::State& state) {
  scan_tiles_on(state, core::minimizer_scan_lanes());
}
BENCHMARK(BM_HotpathMinimizerScan);

// The scalar loop on the same tiles: the lane kernels' baseline.
void BM_HotpathMinimizerScanScalar(benchmark::State& state) {
  scan_tiles_on(state, 1);
}
BENCHMARK(BM_HotpathMinimizerScanScalar);

// The linear-time guard: every window of a tandem repeat holds tied minima,
// the input on which a rescan-on-evict window degrades to O(|s|·w).
void BM_HotpathMinimizerScanRepeat(benchmark::State& state) {
  const core::MapParams params = hotpath_data().params;
  const core::MinimizerParams mp{params.k, params.w, params.ordering};
  std::string ac;
  for (int i = 0; i < 500; ++i) ac += "AC";
  const std::string repeats[] = {std::string(1000, 'A'), ac};
  core::MinimizerScratch scratch;
  std::vector<core::Minimizer> out;
  std::size_t i = 0;
  for (auto _ : state) {
    core::minimizer_scan(repeats[i], mp, scratch, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    i ^= 1;
  }
  state.SetBytesProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_HotpathMinimizerScanRepeat);

/// The minimizer lists of the scan tiles: one block each (span <= ℓ).
const std::vector<std::vector<core::Minimizer>>& tile_lists() {
  static const std::vector<std::vector<core::Minimizer>> lists = [] {
    const core::MapParams params = hotpath_data().params;
    std::vector<std::vector<core::Minimizer>> out;
    for (const std::string& tile : scan_tiles()) {
      out.push_back(
          core::minimizer_scan(tile, {params.k, params.w, params.ordering}));
    }
    return out;
  }();
  return lists;
}

/// Sketches the lists in turn on the sketch kernel of `lanes`.
void sketch_lists_on(benchmark::State& state,
                     const std::vector<std::vector<core::Minimizer>>& lists,
                     int lanes) {
  const core::MapParams params = hotpath_data().params;
  const core::HashFamily hashes(params.trials, params.seed);
  core::SketchScratch scratch;
  core::FlatSketch sketch;
  std::size_t i = 0;
  for (auto _ : state) {
    core::detail::sketch_by_jem_with(lanes, lists[i], params.segment_length,
                                     hashes, scratch, sketch);
    benchmark::DoNotOptimize(sketch.kmers.data());
    benchmark::ClobberMemory();
    i = (i + 1) % lists.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(lists.size()) + " distinct lists, " +
                 std::to_string(lanes) + " lanes");
}

// The kernel sketch_by_jem dispatches to on this host, on query tiles.
void BM_HotpathSuffixSketch(benchmark::State& state) {
  sketch_lists_on(state, tile_lists(), core::sketch_lanes());
}
BENCHMARK(BM_HotpathSuffixSketch);

// The per-trial scalar loop on the same tiles: the lane kernels' baseline.
void BM_HotpathSuffixSketchScalar(benchmark::State& state) {
  sketch_lists_on(state, tile_lists(), 1);
}
BENCHMARK(BM_HotpathSuffixSketchScalar);

// The subject side of the same kernel: a ~50 kbp contig spans ~50
// intervals, so every list is many blocks. Each iteration sketches one of
// 40 distinct contigs (simulated, repeat-rich) at the paper's parameters;
// the reference is the pre-overhaul std::deque kernel.
const std::vector<std::vector<core::Minimizer>>& subject_lists() {
  static const std::vector<std::vector<core::Minimizer>> lists = [] {
    sim::GenomeParams genome;
    genome.length = 2'000'000;
    genome.repeat_fraction = 0.28;
    genome.seed = 46;
    const std::string bases = sim::simulate_genome(genome);
    const core::MapParams params = hotpath_data().params;
    std::vector<std::vector<core::Minimizer>> out;
    for (std::size_t start = 0; start + 50'000 <= bases.size();
         start += 50'000) {
      out.push_back(core::minimizer_scan(
          std::string_view(bases).substr(start, 50'000),
          {params.k, params.w, params.ordering}));
    }
    return out;
  }();
  return lists;
}

void BM_HotpathSubjectSketch(benchmark::State& state) {
  sketch_lists_on(state, subject_lists(), core::sketch_lanes());
}
BENCHMARK(BM_HotpathSubjectSketch);

void BM_HotpathSubjectSketchScalar(benchmark::State& state) {
  sketch_lists_on(state, subject_lists(), 1);
}
BENCHMARK(BM_HotpathSubjectSketchScalar);

void BM_HotpathSubjectSketchReference(benchmark::State& state) {
  const auto& lists = subject_lists();
  const core::MapParams params = hotpath_data().params;
  const core::HashFamily hashes(params.trials, params.seed);
  std::size_t i = 0;
  for (auto _ : state) {
    const core::Sketch sketch = oracle::sketch_by_jem_reference(
        lists[i], params.segment_length, hashes);
    benchmark::DoNotOptimize(sketch.total_entries());
    i = (i + 1) % lists.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(lists.size()) + " distinct contigs");
}
BENCHMARK(BM_HotpathSubjectSketchReference);

// The end-to-end pair the BENCH_hotpath.json speedup criterion reads: one
// query segment mapped start to finish, pre-overhaul path vs hot path.
void BM_HotpathMapSegmentReference(benchmark::State& state) {
  const core::JemMapper& mapper = hotpath_mapper();
  const HotpathData& data = hotpath_data();
  oracle::ReferenceCounters counters(data.subjects.size());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        oracle::map_segment_reference(mapper, data.segments[i], counters));
    i = (i + 1) % data.segments.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotpathMapSegmentReference);

void BM_HotpathMapSegment(benchmark::State& state) {
  const core::JemMapper& mapper = hotpath_mapper();
  const HotpathData& data = hotpath_data();
  core::MapScratch scratch(data.subjects.size());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.map_segment(data.segments[i], scratch));
    i = (i + 1) % data.segments.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotpathMapSegment);

void BM_HotpathEngineSegmentsPerSec(benchmark::State& state) {
  const HotpathData& data = hotpath_data();
  const core::MappingEngine engine(data.subjects, data.params);
  core::MapRequest request;  // serial end-segment mapping
  std::int64_t segments = 0;
  for (auto _ : state) {
    const core::MapReport report = engine.run(data.reads, request);
    segments = static_cast<std::int64_t>(report.stats.segments);
    benchmark::DoNotOptimize(segments);
  }
  state.SetItemsProcessed(state.iterations() * segments);
  state.SetLabel("segments/s via items_per_second");
}
BENCHMARK(BM_HotpathEngineSegmentsPerSec)->Unit(benchmark::kMillisecond);

void BM_MashmapMapSegment(benchmark::State& state) {
  const std::string genome = random_dna(12, 200'000);
  io::SequenceSet subjects;
  for (int i = 0; i < 40; ++i) {
    subjects.add("c" + std::to_string(i),
                 genome.substr(static_cast<std::size_t>(i) * 5000, 5000));
  }
  const baseline::MashmapLikeMapper mapper(subjects, {});
  const std::string segment = genome.substr(101'000, 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.map_segment(segment));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MashmapMapSegment);

void BM_MinimapChainSegment(benchmark::State& state) {
  const std::string genome = random_dna(12, 200'000);
  io::SequenceSet subjects;
  for (int i = 0; i < 40; ++i) {
    subjects.add("c" + std::to_string(i),
                 genome.substr(static_cast<std::size_t>(i) * 5000, 5000));
  }
  const baseline::MinimapLikeMapper mapper(subjects, {});
  const std::string segment = genome.substr(101'000, 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.map_segment(segment));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MinimapChainSegment);

void BM_GzipRoundTrip(benchmark::State& state) {
  const std::string data = random_dna(20, 100'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::gzip_decompress(io::gzip_compress(data, 1)));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_GzipRoundTrip);

// BM_GzipDecompress / BM_ReadFileAuto: the query input path (docs/perf.md
// "Input path") on ~40 MB of synthetic FASTQ deflated at level 6, as one
// member (gzip, make_dataset) or as four (perfbench's generator, bgzip-like
// writers). Members inflate on a pool: timed on the wall clock.
struct GzipFixture {
  std::string text;
  std::string one_member;
  std::string four_members;
  std::filesystem::path one_member_file;
  std::filesystem::path four_members_file;

  GzipFixture() {
    util::Xoshiro256ss rng(29);
    for (std::size_t read = 0; text.size() < 40'000'000; ++read) {
      const std::size_t length = 2'000 + rng.bounded(16'000);
      text += "@read" + std::to_string(read) + "\n" +
              random_dna(rng(), length) + "\n+\n" +
              std::string(length, 'I') + "\n";
    }
    one_member = io::gzip_compress(text, 6);
    const std::size_t quarter = text.size() / 4;
    for (std::size_t part = 0; part < 4; ++part) {
      four_members += io::gzip_compress(
          std::string_view(text).substr(part * quarter,
                                        part == 3 ? std::string::npos
                                                  : quarter),
          6);
    }
    const std::filesystem::path dir = std::filesystem::temp_directory_path();
    one_member_file = dir / "jem_bench_reads_1.fq.gz";
    four_members_file = dir / "jem_bench_reads_4.fq.gz";
    std::ofstream(one_member_file, std::ios::binary) << one_member;
    std::ofstream(four_members_file, std::ios::binary) << four_members;
  }
  GzipFixture(const GzipFixture&) = delete;
  GzipFixture& operator=(const GzipFixture&) = delete;
  ~GzipFixture() {
    std::error_code ignored;
    std::filesystem::remove(one_member_file, ignored);
    std::filesystem::remove(four_members_file, ignored);
  }
};

const GzipFixture& gzip_fixture() {
  static const GzipFixture fixture;
  return fixture;
}

void BM_GzipDecompress(benchmark::State& state) {
  const GzipFixture& fx = gzip_fixture();
  const std::string& data =
      state.range(0) == 1 ? fx.one_member : fx.four_members;
  for (auto _ : state) {
    const std::string text = io::gzip_decompress(data);
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.text.size()));
}
BENCHMARK(BM_GzipDecompress)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ReadFileAuto(benchmark::State& state) {
  const GzipFixture& fx = gzip_fixture();
  const std::string path = (state.range(0) == 1 ? fx.one_member_file
                                                : fx.four_members_file)
                               .string();
  for (auto _ : state) {
    const std::string text = io::read_file_auto(path);
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.text.size()));
}
BENCHMARK(BM_ReadFileAuto)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// BM_Crc32: zlib's table loop (0) against io::crc32 (1) over 64 KiB, a
// deflate block's worth that stays in cache, and over the ~40 MB text.
void BM_Crc32(benchmark::State& state) {
  const std::string_view bytes =
      std::string_view(gzip_fixture().text)
          .substr(0, static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    std::uint32_t crc = 0;
    if (state.range(0) == 0) {
      crc = static_cast<std::uint32_t>(
          crc32_z(0, reinterpret_cast<const Bytef*>(bytes.data()),
                  bytes.size()));
    } else {
      crc = io::crc32(0, bytes);
    }
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32)
    ->Args({0, 1 << 16})
    ->Args({1, 1 << 16})
    ->Args({0, 40'000'000})
    ->Args({1, 40'000'000});

// BM_StreamReaderFastq: the parser alone (line split, clean check, FASTQ
// checks) over the ~40 MB text, in batches of 256 reads as the streamed
// engine reads them. Copying the text into the stream is not timed.
void BM_StreamReaderFastq(benchmark::State& state) {
  const GzipFixture& fx = gzip_fixture();
  for (auto _ : state) {
    state.PauseTiming();
    std::istringstream in(fx.text);
    state.ResumeTiming();
    io::SequenceStreamReader reader(in);
    for (;;) {
      io::SequenceSet batch;
      if (reader.append_batch(batch, 256) == 0) break;
      benchmark::DoNotOptimize(batch);
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.text.size()));
}
BENCHMARK(BM_StreamReaderFastq)->Unit(benchmark::kMillisecond);

void BM_Allgatherv(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t elements = 4096;
  for (auto _ : state) {
    mpisim::run_spmd_ft(ranks, [&](mpisim::Comm& comm) {
      std::vector<std::uint64_t> local(elements,
                                       static_cast<std::uint64_t>(comm.rank()));
      benchmark::DoNotOptimize(comm.allgatherv(local));
    });
  }
  state.SetBytesProcessed(state.iterations() * ranks *
                          static_cast<std::int64_t>(elements * 8));
}
BENCHMARK(BM_Allgatherv)->Arg(2)->Arg(4)->Arg(8);

// BM_IndexLoad*: the index persistence trade-off (docs/persistence.md) —
// what --load-index buys over rebuilding the sketch index from FASTA.
// The subject set is shared across the family so the numbers compare.
struct IndexLoadFixture {
  io::SequenceSet subjects;
  core::MapParams params;
  std::string bytes;  // serialized artifact

  IndexLoadFixture() {
    const std::string genome = random_dna(23, 800'000);
    for (int i = 0; i < 16; ++i) {
      subjects.add("c" + std::to_string(i),
                   genome.substr(static_cast<std::size_t>(i) * 50'000,
                                 50'000));
    }
    params = core::MapParams{
        .k = 16, .w = 20, .trials = 8, .segment_length = 800, .seed = 7};
    params.validate();
    const core::JemMapper mapper(subjects, params);
    bytes = core::serialize_index(mapper.table(), params,
                                  core::SketchScheme::kJem, subjects);
  }
};

const IndexLoadFixture& index_load_fixture() {
  static const IndexLoadFixture fixture;
  return fixture;
}

std::vector<core::SketchEntry> fixture_entries(const IndexLoadFixture& fx,
                                               std::size_t threads) {
  const core::HashFamily hashes(fx.params.trials, fx.params.seed);
  return core::sketch_subjects(
      fx.subjects, 0, static_cast<io::SeqId>(fx.subjects.size()), fx.params,
      core::SketchScheme::kJem, hashes, threads);
}

// The whole build on state.range(0) threads (the JemMapper constructor uses
// every hardware thread), then its two layers: S2 (sketch_subjects) and the
// per-trial sort + flat build (SketchTable::from_entries). Pool-based: timed on
// the wall clock.
void BM_IndexLoadBuildFromFasta(benchmark::State& state) {
  const IndexLoadFixture& fx = index_load_fixture();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const core::JemMapper mapper(
        fx.subjects, fx.params, core::SketchScheme::kJem,
        core::SketchTable::from_entries(fx.params.trials,
                                        fixture_entries(fx, threads),
                                        threads));
    benchmark::DoNotOptimize(mapper.table().size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexLoadBuildFromFasta)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_IndexSketchSubjects(benchmark::State& state) {
  const IndexLoadFixture& fx = index_load_fixture();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture_entries(fx, threads).size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.subjects.total_bases()));
}
BENCHMARK(BM_IndexSketchSubjects)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_IndexFromEntries(benchmark::State& state) {
  const IndexLoadFixture& fx = index_load_fixture();
  const auto threads = static_cast<std::size_t>(state.range(0));
  const std::vector<core::SketchEntry> entries = fixture_entries(fx, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::SketchTable::from_entries(fx.params.trials, entries, threads)
            .size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(entries.size()));
}
BENCHMARK(BM_IndexFromEntries)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_IndexLoadSerialize(benchmark::State& state) {
  const IndexLoadFixture& fx = index_load_fixture();
  const core::JemMapper mapper(fx.subjects, fx.params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::serialize_index(
        mapper.table(), fx.params, core::SketchScheme::kJem, fx.subjects));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.bytes.size()));
}
BENCHMARK(BM_IndexLoadSerialize);

void BM_IndexLoadDeserialize(benchmark::State& state) {
  const IndexLoadFixture& fx = index_load_fixture();
  for (auto _ : state) {
    core::SketchTable table = core::deserialize_index(
        fx.bytes, fx.params, core::SketchScheme::kJem, fx.subjects);
    benchmark::DoNotOptimize(table.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.bytes.size()));
}
BENCHMARK(BM_IndexLoadDeserialize);

void BM_IndexLoadFromDisk(benchmark::State& state) {
  const IndexLoadFixture& fx = index_load_fixture();
  const std::string path = "/tmp/jem_bench_index.jemidx";
  io::atomic_write_file(path, fx.bytes);
  for (auto _ : state) {
    core::SketchTable table = core::load_index(
        path, fx.params, core::SketchScheme::kJem, fx.subjects);
    benchmark::DoNotOptimize(table.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.bytes.size()));
  std::remove(path.c_str());
}
BENCHMARK(BM_IndexLoadFromDisk);

void BM_EditDistance(benchmark::State& state) {
  const std::string a = random_dna(14, 1000);
  const std::string b = random_dna(15, 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::edit_distance(a, b));
  }
}
BENCHMARK(BM_EditDistance);

void BM_BandedEditDistance(benchmark::State& state) {
  std::string a = random_dna(16, 1000);
  std::string b = a;
  b[100] = b[100] == 'A' ? 'C' : 'A';
  b[500] = b[500] == 'G' ? 'T' : 'G';
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::banded_edit_distance(a, b, 32));
  }
}
BENCHMARK(BM_BandedEditDistance);

void BM_SemiglobalAlign(benchmark::State& state) {
  const std::string subject = random_dna(17, 1800);
  const std::string query = subject.substr(400, 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::semiglobal_align(query, subject));
  }
}
BENCHMARK(BM_SemiglobalAlign);

}  // namespace

BENCHMARK_MAIN();
