// JemMapper — Algorithm 2 (L2C mapping): build the sketch table over the
// subjects, then map every long-read end segment to its best-hit contig.
//
// The class maps one segment at a time. It is immutable after
// construction; map_segment is const and thread-safe given a per-thread
// MapScratch. Mapping a set of reads — in memory, streamed, threaded or
// one rank's partition — is MappingEngine's job (core/engine.hpp), whose
// batch body calls map_segment / map_segment_topx per segment.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "core/end_segments.hpp"
#include "core/hash_family.hpp"
#include "core/hit_counter.hpp"
#include "core/params.hpp"
#include "core/sketch.hpp"
#include "core/sketch_table.hpp"
#include "io/mapping_writer.hpp"
#include "io/sequence_set.hpp"

namespace jem::obs {
class Registry;  // obs/metrics.hpp
}  // namespace jem::obs

namespace jem::core {

/// Which sketch drives the mapping: the paper's JEM sketch or the classical
/// MinHash it is compared against (Fig 6).
enum class SketchScheme { kJem, kClassicMinhash };

/// Result of mapping one segment.
struct MapResult {
  io::SeqId subject = io::kInvalidSeqId;
  std::uint32_t votes = 0;  // trials in which the subject hit

  [[nodiscard]] bool mapped() const noexcept {
    return subject != io::kInvalidSeqId;
  }
  friend bool operator==(const MapResult&, const MapResult&) = default;
};

/// One mapped end segment with provenance — the unit of the tool's output
/// and of the quality evaluation.
struct SegmentMapping {
  io::SeqId read = 0;
  ReadEnd end = ReadEnd::kPrefix;
  std::uint32_t offset = 0;  // segment start within the read
  std::uint32_t segment_length = 0;
  MapResult result;

  friend bool operator==(const SegmentMapping&, const SegmentMapping&) =
      default;
};

/// Top-x variant (the extension the paper sketches in §IV-C: "if we are to
/// extend our method to report a fixed number, say top x hits per read,
/// then several of the missing contig hits could possibly be recovered").
/// `hits` is ordered by votes descending, ties to the smaller subject id.
struct SegmentTopX {
  io::SeqId read = 0;
  ReadEnd end = ReadEnd::kPrefix;
  std::uint32_t segment_length = 0;
  std::vector<MapResult> hits;

  friend bool operator==(const SegmentTopX&, const SegmentTopX&) = default;
};

/// Sampled hot-path counters (docs/observability.md). Plain integers owned
/// by one MapScratch — updating them is allocation- and atomic-free, which
/// keeps the instrumented map_segment inside the <= 3% overhead budget.
/// Disabled (sample_every == 0) they cost one predictable branch per
/// segment. Every sample_every-th segment is measured in full: k-mer
/// lookups, postings hits/misses, distinct k-mers probed and the
/// flat-index slots those probes touched, and distinct candidate subjects
/// voted. The engine publishes the totals into its
/// metrics registry after the run (core.hotpath.* counters).
struct HotpathCounters {
  std::uint32_t sample_every = 0;  // 0 = sampling off
  std::uint32_t tick = 0;

  std::uint64_t segments_seen = 0;     // all segments (kept even unsampled)
  std::uint64_t segments_sampled = 0;  // segments measured in full
  std::uint64_t kmer_lookups = 0;      // (trial, k-mer) entries resolved
  std::uint64_t sketch_hits = 0;       // entries with non-empty postings
  std::uint64_t sketch_misses = 0;     // entries with no postings
  std::uint64_t kmer_probes = 0;       // distinct k-mers probed (sampled)
  std::uint64_t probe_slots = 0;       // slots those probes touched
  std::uint64_t candidates = 0;        // distinct subjects voted (sampled)

  /// Advances the per-segment clock; true when this segment is sampled.
  [[nodiscard]] bool tick_sample() noexcept {
    if (sample_every == 0) return false;
    ++segments_seen;
    if (++tick < sample_every) return false;
    tick = 0;
    ++segments_sampled;
    return true;
  }

  /// Adds the totals to the `core.hotpath.*` counters of `registry`, and
  /// sets the kernel gauges (publish_kernel_lanes).
  void publish(obs::Registry& registry) const;
};

/// Sets the gauges `core.minimizer.lanes`, `core.sketch.lanes` and
/// `io.crc32.lanes` of `registry` to the lanes of the scan, sketch and
/// gzip CRC kernels this process runs, so map and read timings can be read
/// against their kernels.
void publish_kernel_lanes(obs::Registry& registry);

/// The vote pass's per-segment buffers (core/mapper.cpp): the segment's
/// sketch rows, each distinct k-mer with its T-bit trial set (sketch_keys),
/// per distinct k-mer its home slot and postings run, and the postings that
/// vote, sorted by trial.
struct SketchKeys {
  struct Posting {
    std::uint32_t trial = 0;
    io::SeqId subject = 0;
  };
  std::vector<KmerCode> kmers;             // distinct id -> k-mer
  std::vector<std::uint64_t> trials;       // distinct id -> trial set
  std::vector<std::size_t> homes;          // distinct id -> home slot
  std::vector<FlatSketchIndex::Run> runs;  // distinct id -> postings run
  std::vector<Posting> matched;            // postings in a query trial
  std::vector<std::uint32_t> starts;       // [t + 1]: matched in trial t
  std::vector<Posting> voted;              // `matched` sorted by trial
};

/// Per-thread mutable state for the query phase: the vote counter (the
/// lazy counters of the paper's S4 implementation notes, one record per
/// subject) plus every buffer the sketch kernels and the vote pass need,
/// so a segment mapped with a warm scratch performs no heap allocation at
/// all. One scratch per worker thread: each engine worker owns one for all
/// the batches it claims.
class MapScratch {
 public:
  explicit MapScratch(std::size_t num_subjects) : counter_(num_subjects) {}

  /// Per-subject votes of the current segment.
  VoteCounter& counter() noexcept { return counter_; }

  /// Sketch-kernel buffers (minimizer list, window rings, interval rows).
  SketchScratch& sketch_scratch() noexcept { return sketch_scratch_; }

  /// The segment's distinct sketch k-mers and trial sets, their postings
  /// runs and the postings that vote.
  SketchKeys& keys() noexcept { return keys_; }

  /// Subjects touched by the current top-x round (reused across calls).
  std::vector<io::SeqId>& touched() noexcept { return touched_; }

  /// Sampled instrumentation (off by default; the engine enables it when a
  /// metrics registry is attached to the run).
  HotpathCounters& hotpath() noexcept { return hotpath_; }

 private:
  VoteCounter counter_;
  SketchScratch sketch_scratch_;
  SketchKeys keys_;
  std::vector<io::SeqId> touched_;
  HotpathCounters hotpath_;
};

/// Computes the sketch of one sequence under the given scheme, as the
/// sorted view of its rows (tests, examples).
[[nodiscard]] Sketch make_sketch(std::string_view seq, const MapParams& params,
                                 SketchScheme scheme,
                                 const HashFamily& hashes);

/// Scratch-reusing form: fills `out` with sketch_keys' rows regrouped trial
/// by trial (rows_by_trial), without steady-state allocation. Each trial
/// list holds the allocating overload's per_trial set, in no promised
/// order.
void make_sketch(std::string_view seq, const MapParams& params,
                 SketchScheme scheme, const HashFamily& hashes,
                 SketchScratch& scratch, FlatSketch& out);

/// Sketches `seq` under the scheme into its rows: the distinct k-mers
/// (keys.kmers) and their T-bit trial sets (keys.trials,
/// trial_set_words(T) words each), bit t set when trial t's sketch holds
/// the k-mer. JEM runs sketch_by_jem_sets over the minimizer scan, MinHash
/// classic_minhash_sets. Returns the number of distinct k-mers.
/// map_segment, the partitioned driver and the index build (sketch_subjects)
/// all take their sketches from here.
std::size_t sketch_keys(std::string_view seq, const MapParams& params,
                        SketchScheme scheme, const HashFamily& hashes,
                        SketchScratch& scratch, SketchKeys& keys);

/// map_segment's vote over the postings in keys().matched, whose count in
/// trial t is keys().starts[t + 1] (starts[0] is 0): one vote per
/// subject per trial, the most votes win, ties to the smaller id, and a
/// winner below `min_votes` is unmapped.
[[nodiscard]] MapResult vote_matched(MapScratch& scratch, int trials,
                                     std::uint32_t min_votes);

/// Contiguous [begin, end) sequence ranges balancing total bases across
/// `parts` parts (the S1 partitioning rule). The second form splits only
/// sequences [first, last).
[[nodiscard]] std::vector<std::pair<io::SeqId, io::SeqId>> partition_by_bases(
    const io::SequenceSet& set, int parts);
[[nodiscard]] std::vector<std::pair<io::SeqId, io::SeqId>> partition_by_bases(
    const io::SequenceSet& set, int parts, io::SeqId first, io::SeqId last);

/// S2: sketches subjects [begin, end) of `subjects` into the wire entry list
/// SketchTable::from_entries builds the table from — every (trial, kmer) of
/// each subject's sketch rows (sketch_keys), subjects in id order, each
/// subject's rows in order and each row's trials in order. `threads`
/// workers sketch base-balanced subject ranges in parallel; the list is
/// the same at every thread count. Throws
/// std::invalid_argument if `hashes` does not have params.trials trials.
[[nodiscard]] std::vector<SketchEntry> sketch_subjects(
    const io::SequenceSet& subjects, io::SeqId begin, io::SeqId end,
    const MapParams& params, SketchScheme scheme, const HashFamily& hashes,
    std::size_t threads = 1);

class JemMapper {
 public:
  /// Builds the table over all subjects: parallel S2 (sketch_subjects) and
  /// the sort-based SketchTable::from_entries, on util::default_threads(0)
  /// workers.
  JemMapper(const io::SequenceSet& subjects, MapParams params,
            SketchScheme scheme = SketchScheme::kJem);

  /// Adopts a pre-built (e.g. allgathered) table.
  JemMapper(const io::SequenceSet& subjects, MapParams params,
            SketchScheme scheme, SketchTable table);

  [[nodiscard]] const MapParams& params() const noexcept { return params_; }
  [[nodiscard]] SketchScheme scheme() const noexcept { return scheme_; }
  [[nodiscard]] const HashFamily& hashes() const noexcept { return hashes_; }
  [[nodiscard]] const SketchTable& table() const noexcept { return table_; }
  [[nodiscard]] const io::SequenceSet& subjects() const noexcept {
    return subjects_;
  }

  /// Maps one segment (steps 4-8 of Algorithm 2). Hot path: sketches into
  /// the scratch's reusable buffers, probes each distinct sketch k-mer once
  /// in the table's FlatSketchIndex (home slots prefetched first), then
  /// votes trial by trial from the k-mers' postings runs.
  [[nodiscard]] MapResult map_segment(std::string_view segment,
                                      MapScratch& scratch) const;

  /// Convenience overload allocating its own scratch (tests, examples).
  [[nodiscard]] MapResult map_segment(std::string_view segment) const;

  /// Maps one segment and returns up to `x` candidate subjects ordered by
  /// votes (descending, ties to smaller id). Subjects below min_votes are
  /// not reported; the front element equals map_segment's result.
  [[nodiscard]] std::vector<MapResult> map_segment_topx(
      std::string_view segment, std::size_t x, MapScratch& scratch) const;

  /// Renders mappings as output lines (query/subject names resolved).
  [[nodiscard]] std::vector<io::MappingLine> to_mapping_lines(
      const io::SequenceSet& reads,
      const std::vector<SegmentMapping>& mappings) const;

 private:
  const io::SequenceSet& subjects_;
  MapParams params_;
  SketchScheme scheme_;
  HashFamily hashes_;
  SketchTable table_;
};

}  // namespace jem::core
