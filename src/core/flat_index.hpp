// FlatSketchIndex — the frozen sketch table S: one open-addressing
// (linear-probe) hash table keyed by minhash k-mer alone, shared by all T
// trials. Each key points at one run of postings sorted by (trial,
// subject), stored as two parallel arrays (trial ids and subject ids), so
// the subjects of a k-mer in trial t — the paper's S[t][kmer], one of its
// "T lists" of S_global (Fig 2) — are one contiguous slice of the subject
// array.
//
// One table for all trials is minimap2's layout (Li 2018): one hash table
// keyed by minimizer, all of a minimizer's hits in one postings run. Every
// entry of a segment's sketch is a minimizer of the segment, so its ~110
// (trial, k-mer) entries hold only ~20 distinct k-mers. The mapper hashes,
// prefetches and probes each distinct k-mer once (home(), probe()), then
// votes trial by trial from the runs (core/mapper.cpp); the partitioned
// distributed driver probes its shard the same way. lookup(t, kmer) and
// the batched lookup_many() probe the k-mer and cut trial t's slice out
// of its run: this per-trial view serves only tests, the oracles and
// perfbench.
//
// Layout. A key's home slot is the top log2(capacity) bits of mix64(kmer),
// with the capacity the smallest power of two >= 2 * keys (load <= 0.5,
// ~1.3 slots touched per probe). Keys sit in ascending hash order, each in
// the first free slot at or after its home, and probes never wrap: the slot
// array runs past the capacity far enough to hold the last keys and one
// empty slot after them, so every probe ends on an empty slot. Each slot
// carries its run's offset and length inline, so a hit costs one cache line
// for the slot plus the run itself. The runs are laid out in slot order.
//
// Build. The entries are split into hash shards by the top bits of the same
// hash, so the shards own consecutive ranges of homes. One pool task per
// shard sorts its entries, drops duplicates and orders its keys by hash; a
// serial pass over the keys places the shard boundaries in the slot array;
// then one task per shard writes its slots and its postings, the first to
// touch its part of each array (nothing zero-fills them first). The layout
// is a function of the key set alone, so the bytes depend on neither the
// entry order, the shard count nor the thread count.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/kmer.hpp"
#include "io/sequence.hpp"
#include "util/prng.hpp"
#include "util/uninit_vector.hpp"

namespace jem::util {
class ThreadPool;  // util/thread_pool.hpp
}  // namespace jem::util

namespace jem::core {

/// One (trial, kmer, subject) entry of S: the build input, and the wire
/// format of the union step (SketchTable). Trivially copyable for the
/// allgatherv wire format.
struct SketchEntry {
  KmerCode kmer = 0;
  std::uint32_t trial = 0;
  io::SeqId subject = 0;

  friend bool operator==(const SketchEntry&, const SketchEntry&) = default;
};
static_assert(sizeof(SketchEntry) == 16);

class FlatSketchIndex {
 public:
  /// The index's arrays: vectors whose resize leaves elements unwritten,
  /// so each build task first-touches its own slice.
  template <typename T>
  using Array = util::UninitVector<T>;

  /// One probe slot; count == 0 marks an empty slot (every stored key has
  /// >= 1 posting). Public for the index artifact (core/index_serde), which
  /// persists the slot array verbatim so load skips the build entirely.
  struct Slot {
    KmerCode kmer;
    std::uint32_t offset;  // first posting of the key's run
    std::uint32_t count;   // postings in the run

    friend bool operator==(const Slot&, const Slot&) = default;
  };
  static_assert(sizeof(Slot) == 16);
  static_assert(std::is_trivially_default_constructible_v<Slot>);

  /// A run of postings, [begin, end) into trial_ids() and subjects().
  struct Run {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// An empty index (no trials); lookups are invalid until assigned from
  /// build().
  FlatSketchIndex() = default;

  /// Builds the index of `trials` trials from entries in any order;
  /// duplicate entries collapse. One pool task per hash shard (inline
  /// without a pool). Throws std::invalid_argument on a trial id >= trials
  /// and std::length_error if the postings exceed the uint32 offset range.
  [[nodiscard]] static FlatSketchIndex build(
      int trials, std::span<const SketchEntry> entries,
      util::ThreadPool* pool = nullptr);

  [[nodiscard]] int trials() const noexcept { return trials_; }

  /// Distinct (trial, kmer) keys stored: the runs of one trial in one key.
  [[nodiscard]] std::size_t key_count() const noexcept { return keys_; }

  /// Distinct k-mers stored: the table's keys, one occupied slot each.
  [[nodiscard]] std::size_t kmer_count() const noexcept { return kmers_; }

  /// Slots that homes fall in: a power of two >= 2 * kmer_count(). The slot
  /// array holds this many plus the overflow of the last keys.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return std::size_t{1} << (64 - shift_);
  }

  [[nodiscard]] static std::uint64_t hash(KmerCode kmer) noexcept {
    return util::mix64(kmer);
  }

  /// Home slot of a k-mer whose hash() is `hash`.
  [[nodiscard]] std::size_t home(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>(hash >> shift_);
  }

  /// Starts loading the slot at `home`, so the misses of many probes
  /// overlap.
  void prefetch(std::size_t home) const noexcept {
    __builtin_prefetch(slots_.data() + home, 0 /* read */, 1);
  }

  /// The probe loop: walks the slots from `home` until it finds `kmer` (its
  /// postings run) or an empty slot (an empty run). Adds the slots touched
  /// to `probed`, which the mapper's sampled hot-path counters turn into a
  /// probe-length distribution.
  [[nodiscard]] Run probe(std::size_t home, KmerCode kmer,
                          std::uint64_t& probed) const noexcept {
    for (const Slot* slot = slots_.data() + home;; ++slot) {
      ++probed;
      if (slot->count == 0) return {};
      if (slot->kmer == kmer) {
        return {slot->offset, slot->offset + slot->count};
      }
    }
  }

  /// Postings of `kmer` in trial `t` (empty span if absent).
  [[nodiscard]] std::span<const io::SeqId> lookup(int trial,
                                                  KmerCode kmer) const {
    std::uint64_t probed = 0;
    return trial_subjects(probe(home(hash(kmer)), kmer, probed), trial);
  }

  /// Batched lookup of kmers[j] in trial `t` into out[j], prefetching home
  /// slots ahead of the probe loop. `out` must have kmers.size() entries.
  /// Returns the number of slots probed across all keys (>= kmers.size()).
  std::uint64_t lookup_many(int trial, std::span<const KmerCode> kmers,
                            std::span<std::span<const io::SeqId>> out) const;

  /// Raw-part access for the index artifact: the slot array and the two
  /// postings arrays exactly as built.
  [[nodiscard]] std::span<const Slot> slots() const noexcept {
    return slots_;
  }
  [[nodiscard]] std::span<const std::uint32_t> trial_ids() const noexcept {
    return trial_ids_;
  }
  [[nodiscard]] std::span<const io::SeqId> subjects() const noexcept {
    return subjects_;
  }

  /// Reconstructs an index from persisted raw parts (the inverse of the
  /// accessors above). Validates them — a power-of-two capacity >= 2 within
  /// the slot array, an empty last slot, occupied slots equal to `kmers`,
  /// every run inside the postings arrays and strictly ascending by
  /// (trial, subject), every trial id < `trials` and every subject id <
  /// `num_subjects` — and throws std::invalid_argument on any violation,
  /// so a corrupted artifact can never produce an index whose probe loop
  /// or vote pass reads out of bounds or spins forever.
  [[nodiscard]] static FlatSketchIndex from_parts(
      int trials, std::size_t capacity, Array<Slot> slots,
      Array<std::uint32_t> trial_ids, Array<io::SeqId> subjects,
      std::size_t kmers, std::size_t num_subjects);

 private:
  /// The subjects of `run` in trial `trial`, sorted by id (empty if the
  /// run has none there).
  [[nodiscard]] std::span<const io::SeqId> trial_subjects(
      Run run, int trial) const noexcept;

  Array<Slot> slots_;
  Array<std::uint32_t> trial_ids_;  // postings: trial of each
  Array<io::SeqId> subjects_;       // postings: subject of each
  int trials_ = 0;
  unsigned shift_ = 63;  // 64 - log2(capacity)
  std::size_t kmers_ = 0;
  std::size_t keys_ = 0;
};

}  // namespace jem::core
