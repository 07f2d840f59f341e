// The sketch data structure S of Algorithm 2: T hash tables, one per trial,
// mapping a minhash k-mer to the subjects that produced it. Includes the
// flat serialization used for the MPI_Allgatherv union step (S3).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/flat_index.hpp"
#include "core/sketch.hpp"
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

// The table has three representations:
//  * a mutable hash-map form used while sketching local subjects (S2),
//  * a frozen CSR form — per trial, a position-sorted key array with a
//    postings array — matching the paper's description of S_global as
//    "T lists" (Fig 2). from_entries builds the frozen form directly by
//    sorting the allgathered wire entries, which is markedly cheaper than
//    re-inserting hundreds of thousands of entries into hash maps at every
//    rank, and lookups become cache-friendly binary searches; and
//  * a FlatSketchIndex built alongside the CSR form on freeze — the
//    open-addressing form the query hot path probes (O(1) per lookup, with
//    batched prefetching). lookup() keeps answering from the CSR arrays so
//    the two forms can be validated against each other; flat() exposes the
//    hash index JemMapper queries.
// Freezing throws std::length_error if any trial's postings exceed the
// std::uint32_t offset range of the CSR layout (2^32 - 1 entries per trial)
// rather than silently truncating.
class SketchTable {
 public:
  /// One trial's frozen list: postings sorted by (kmer, subject); keys/
  /// offsets index the distinct k-mers (CSR layout). Public for the index
  /// artifact (core/index_serde), which persists the arrays verbatim.
  struct FrozenTrial {
    std::vector<KmerCode> keys;              // sorted distinct k-mers
    std::vector<std::uint32_t> offsets;      // keys.size() + 1 entries
    std::vector<io::SeqId> subjects;         // concatenated postings
  };

  /// Creates an empty (mutable) table with `trials` trial bins.
  explicit SketchTable(int trials);

  [[nodiscard]] int trials() const noexcept { return trials_; }

  /// Inserts every (trial, kmer) of `sketch` with value `subject`.
  /// Duplicate (trial, kmer, subject) triples are collapsed.
  /// Throws std::logic_error on a frozen table.
  void insert(const Sketch& sketch, io::SeqId subject);

  /// Inserts one entry. Throws std::logic_error on a frozen table.
  void insert(int trial, KmerCode kmer, io::SeqId subject);

  /// Converts the mutable form into the frozen CSR form (idempotent).
  void freeze();

  [[nodiscard]] bool frozen() const noexcept { return frozen_; }

  /// Subjects that produced `kmer` in trial `t` (empty span if none).
  /// On a frozen table this is the CSR binary search; the hot path uses
  /// flat() instead.
  [[nodiscard]] std::span<const io::SeqId> lookup(int trial,
                                                  KmerCode kmer) const;

  /// The open-addressing query index (throws std::logic_error unless
  /// frozen). Lookups agree exactly with lookup() on a frozen table.
  [[nodiscard]] const FlatSketchIndex& flat() const;

  /// Number of stored (trial, kmer, subject) entries.
  [[nodiscard]] std::size_t size() const noexcept { return entries_; }

  /// Number of distinct (trial, kmer) keys.
  [[nodiscard]] std::size_t key_count() const noexcept;

  /// Flattens to the wire format (entries ordered by trial, then key order
  /// of the underlying map — order is irrelevant to reconstruction).
  [[nodiscard]] std::vector<SketchEntry> to_entries() const;

  /// Rebuilds a (frozen) table from concatenated per-rank entry lists.
  /// Duplicate triples across ranks are collapsed.
  [[nodiscard]] static SketchTable from_entries(
      int trials, std::span<const SketchEntry> entries);

  /// One trial's frozen CSR arrays (throws std::logic_error unless frozen).
  [[nodiscard]] const FrozenTrial& frozen_trial(int trial) const;

  /// Reconstructs a frozen table directly from persisted per-trial CSR
  /// arrays and a pre-built flat index — the artifact load path: no re-sort,
  /// no re-hash, no freeze. Validates CSR shape consistency (offset array
  /// sizes, postings totals, sortedness of keys) and that the flat index
  /// agrees on trial and key counts; throws std::invalid_argument on any
  /// violation so a corrupted artifact cannot produce a malformed table.
  [[nodiscard]] static SketchTable from_frozen(
      int trials, std::vector<FrozenTrial> frozen_trials,
      FlatSketchIndex flat);

 private:
  using Bin = std::unordered_map<KmerCode, std::vector<io::SeqId>>;

  /// Builds flat_ from the frozen CSR arrays (last step of freezing).
  void build_flat_index();

  int trials_ = 0;
  std::vector<Bin> bins_;
  std::vector<FrozenTrial> frozen_trials_;
  FlatSketchIndex flat_;
  bool frozen_ = false;
  std::size_t entries_ = 0;
};

}  // namespace jem::core
