// The sketch data structure S of Algorithm 2: T hash tables, one per trial,
// mapping a minhash k-mer to the subjects that produced it, and the flat
// entry list that S2 produces and the MPI_Allgatherv union step (S3)
// exchanges.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/flat_index.hpp"
#include "core/kmer.hpp"
#include "io/sequence.hpp"

namespace jem::core {

/// One serialized table entry; trivially copyable for the allgatherv wire
/// format.
struct SketchEntry {
  KmerCode kmer = 0;
  std::uint32_t trial = 0;
  io::SeqId subject = 0;

  friend bool operator==(const SketchEntry&, const SketchEntry&) = default;
};
static_assert(sizeof(SketchEntry) == 16);

// The table is built once, from a list of wire entries, and is immutable
// afterwards. The build is the paper's S2 + S3 in one process:
// sketch_subjects (core/mapper.hpp) sketches base-balanced subject ranges in
// parallel into one entry list, and from_entries turns it — or the
// allgathered union of every rank's list — into the frozen table with a
// sort per trial, no hash-map inserts (minimap2's index build, Li 2018).
// The table has two representations, both built by from_entries with the
// trials spread over a thread pool:
//  * a CSR form — per trial, a sorted key array with a postings array —
//    matching the paper's description of S_global as "T lists" (Fig 2);
//    lookup() answers from it with a binary search; and
//  * a FlatSketchIndex over the same postings — the open-addressing form
//    the query hot path probes (O(1) per lookup, with batched
//    prefetching). flat() exposes it; lookup() stays on the CSR arrays so
//    the two forms can be validated against each other.
// The bytes of both forms do not depend on the entry order or the thread
// count. Building throws std::length_error if any trial's postings exceed
// the std::uint32_t offset range of the CSR layout (2^32 - 1 entries per
// trial) rather than silently truncating.
class SketchTable {
 public:
  /// One trial's CSR arrays: postings sorted by (kmer, subject); keys/
  /// offsets index the distinct k-mers. Public for the index artifact
  /// (core/index_serde), which persists the arrays verbatim.
  struct FrozenTrial {
    std::vector<KmerCode> keys;              // sorted distinct k-mers
    std::vector<std::uint32_t> offsets;      // keys.size() + 1 entries
    std::vector<io::SeqId> subjects;         // concatenated postings
  };

  /// Creates an empty table with `trials` trials (throws
  /// std::invalid_argument unless trials >= 1).
  explicit SketchTable(int trials);

  [[nodiscard]] int trials() const noexcept { return trials_; }

  /// Subjects that produced `kmer` in trial `t` (empty span if none): the
  /// CSR binary search. The hot path uses flat() instead.
  [[nodiscard]] std::span<const io::SeqId> lookup(int trial,
                                                  KmerCode kmer) const;

  /// The open-addressing query index. Lookups agree exactly with lookup().
  [[nodiscard]] const FlatSketchIndex& flat() const noexcept { return flat_; }

  /// Number of stored (trial, kmer, subject) entries.
  [[nodiscard]] std::size_t size() const noexcept { return entries_; }

  /// Number of distinct (trial, kmer) keys.
  [[nodiscard]] std::size_t key_count() const noexcept;

  /// Flattens to the wire format, ordered by (trial, kmer, subject).
  [[nodiscard]] std::vector<SketchEntry> to_entries() const;

  /// Builds a table from entry lists — one process's sketch_subjects output
  /// or the concatenated per-rank lists of the union step, in any order.
  /// Duplicate triples collapse. `threads` workers sort and index the
  /// trials in parallel; the result is the same at every thread count.
  /// Throws std::invalid_argument on a trial id >= trials.
  [[nodiscard]] static SketchTable from_entries(
      int trials, std::span<const SketchEntry> entries,
      std::size_t threads = 1);

  /// One trial's CSR arrays.
  [[nodiscard]] const FrozenTrial& frozen_trial(int trial) const;

  /// Reconstructs a table directly from persisted per-trial CSR arrays and
  /// a pre-built flat index — the artifact load path: no re-sort, no
  /// re-hash. Validates CSR shape consistency (offset array sizes, postings
  /// totals, sortedness of keys) and that the flat index agrees on trial
  /// and key counts; throws std::invalid_argument on any violation so a
  /// corrupted artifact cannot produce a malformed table.
  [[nodiscard]] static SketchTable from_frozen(
      int trials, std::vector<FrozenTrial> frozen_trials,
      FlatSketchIndex flat);

 private:
  SketchTable() = default;

  int trials_ = 0;
  std::vector<FrozenTrial> frozen_trials_;
  FlatSketchIndex flat_;
  std::size_t entries_ = 0;
};

}  // namespace jem::core
