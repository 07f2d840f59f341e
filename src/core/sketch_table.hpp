// The sketch data structure S of Algorithm 2: per trial, a map from a
// minhash k-mer to the subjects that produced it, and the flat entry list
// (SketchEntry, core/flat_index.hpp) that S2 produces and the
// MPI_Allgatherv union step (S3) exchanges.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/flat_index.hpp"
#include "core/kmer.hpp"
#include "io/sequence.hpp"

namespace jem::core {

// The table is built once, from a list of wire entries, and is immutable
// afterwards. The build is the paper's S2 + S3 in one process:
// sketch_subjects (core/mapper.hpp) sketches base-balanced subject ranges in
// parallel into one entry list, and from_entries turns it — or the
// allgathered union of every rank's list — into the frozen table with a
// sort per hash shard, no hash-map inserts (minimap2's index build, Li
// 2018). The frozen table has one form, a FlatSketchIndex: one
// open-addressing table keyed by k-mer for all T trials, each key's
// postings one run sorted by (trial, subject), so the paper's S_global as
// "T lists" (Fig 2) is each run cut by trial, probed in O(1) per lookup
// with batched prefetching. flat() exposes it. Its bytes do not depend on
// the entry order or the thread count. Building throws std::length_error
// if the postings exceed the std::uint32_t offset range of a slot
// (2^32 - 1 entries) rather than silently truncating.
class SketchTable {
 public:
  /// Creates an empty table with `trials` trials (throws
  /// std::invalid_argument unless trials >= 1).
  explicit SketchTable(int trials);

  /// Wraps a frozen index — the artifact load path (core/index_serde),
  /// which reconstructs the index from its persisted parts.
  explicit SketchTable(FlatSketchIndex flat) noexcept
      : flat_(std::move(flat)) {}

  [[nodiscard]] int trials() const noexcept { return flat_.trials(); }

  /// The frozen index every mapper probes (FlatSketchIndex::probe). Its
  /// per-trial view, FlatSketchIndex::lookup(t, kmer), gives the subjects
  /// that produced `kmer` in trial `t`, sorted by id; it serves only
  /// tests, the oracles and perfbench.
  [[nodiscard]] const FlatSketchIndex& flat() const noexcept { return flat_; }

  /// Number of stored (trial, kmer, subject) entries.
  [[nodiscard]] std::size_t size() const noexcept {
    return flat_.subjects().size();
  }

  /// Number of distinct (trial, kmer) keys.
  [[nodiscard]] std::size_t key_count() const noexcept {
    return flat_.key_count();
  }

  /// Flattens to the wire format, ordered by (trial, kmer, subject).
  [[nodiscard]] std::vector<SketchEntry> to_entries() const;

  /// Builds a table from entry lists — one process's sketch_subjects output
  /// or the concatenated per-rank lists of the union step, in any order.
  /// Duplicate triples collapse. `threads` workers sort and index the hash
  /// shards in parallel; the result is the same at every thread count.
  /// Throws std::invalid_argument on a trial id >= trials.
  [[nodiscard]] static SketchTable from_entries(
      int trials, std::span<const SketchEntry> entries,
      std::size_t threads = 1);

 private:
  FlatSketchIndex flat_;
};

}  // namespace jem::core
