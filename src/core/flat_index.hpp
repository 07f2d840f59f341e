// FlatSketchIndex — the frozen sketch table S: one open-addressing
// (linear-probe, power-of-two) hash table per trial mapping a minhash k-mer
// to its postings span, over one shared postings pool. It is the table's
// only frozen form: the paper's "T lists" of S_global (Fig 2) are the T
// slot regions, each trial's postings a contiguous slice of the pool.
//
// lookup(t, kmer) is a mixed-hash probe into a half-loaded slot array:
// ~1.1 slots touched on average, each slot carrying the postings offset and
// count inline, so a hit costs one cache line for the slot plus the
// postings themselves. This is the minimap2 indexing strategy (Li 2018)
// adapted to the per-trial key spaces of the JEM sketch.
//
// The mapper resolves a whole segment sketch in one pass: homes() hashes
// every (trial, k-mer) of the sketch once, stores its home slot and
// prefetches it, so all ~T·4 slot misses overlap; the vote loop then walks
// each k-mer's probe from its stored home (probe()). lookup() and the
// batched lookup_many() are thin loops over the same probe.
//
// The index is built once, from each trial's sorted (kmer, subject) pairs,
// and is immutable afterwards. Every trial's slot region and postings slice
// sit at offsets known before the fill (prefix sums of region capacities
// and posting counts), so the trials fill in parallel. Each trial inserts
// its keys in ascending k-mer order, so the bytes do not depend on the
// thread count.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/kmer.hpp"
#include "io/sequence.hpp"
#include "util/prng.hpp"

namespace jem::util {
class ThreadPool;  // util/thread_pool.hpp
}  // namespace jem::util

namespace jem::core {

struct FlatSketch;  // core/sketch.hpp

class FlatSketchIndex {
 public:
  using Posting = std::pair<KmerCode, io::SeqId>;

  /// One trial's build input: its postings sorted by (kmer, subject) with
  /// no duplicates, and the number of distinct k-mers among them.
  struct SortedTrial {
    std::span<const Posting> postings;
    std::size_t keys = 0;
  };

  /// One probe slot; count == 0 marks an empty slot (every stored key has
  /// >= 1 posting). Public for the index artifact (core/index_serde), which
  /// persists the slot array verbatim so load skips the build entirely.
  struct Slot {
    KmerCode kmer = 0;
    std::uint32_t offset = 0;
    std::uint32_t count = 0;

    friend bool operator==(const Slot&, const Slot&) = default;
  };
  static_assert(sizeof(Slot) == 16);

  /// An empty index (no trials); lookups are invalid until assigned from
  /// build().
  FlatSketchIndex() = default;

  /// Builds the index from per-trial sorted postings, one pool task per
  /// trial (inline without a pool). Throws std::length_error if the
  /// postings exceed the uint32 offset range.
  [[nodiscard]] static FlatSketchIndex build(
      std::span<const SortedTrial> trials, util::ThreadPool* pool = nullptr);

  [[nodiscard]] int trials() const noexcept {
    return static_cast<int>(base_.size());
  }

  /// Distinct (trial, kmer) keys stored.
  [[nodiscard]] std::size_t key_count() const noexcept { return keys_; }

  /// Total slots across all trials (>= 2x key_count: max load factor 0.5).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size();
  }

  /// Postings of `kmer` in trial `t` (empty span if absent).
  [[nodiscard]] std::span<const io::SeqId> lookup(int trial,
                                                  KmerCode kmer) const {
    std::uint64_t probed = 0;
    return probe(trial, home(trial, kmer), kmer, probed);
  }

  /// Batched lookup of kmers[j] in trial `t` into out[j], prefetching home
  /// slots ahead of the probe loop. `out` must have kmers.size() entries.
  /// Returns the number of slots probed across all keys (>= kmers.size()).
  std::uint64_t lookup_many(int trial, std::span<const KmerCode> kmers,
                            std::span<std::span<const io::SeqId>> out) const;

  /// Fills out[j] with the home slot of sketch.kmers[j] (one trial per
  /// index trial, trial-major as the sketch stores them) and prefetches
  /// each, so the slot misses of the whole sketch overlap.
  void homes(const FlatSketch& sketch, std::vector<std::size_t>& out) const;

  /// The probe loop: walks trial `t`'s region from `home` until it finds
  /// `kmer` (its postings) or an empty slot (an empty span). Adds the
  /// slots touched to `probed`, which the mapper's sampled hot-path
  /// counters turn into a probe-length distribution.
  [[nodiscard]] std::span<const io::SeqId> probe(
      int trial, std::size_t home, KmerCode kmer,
      std::uint64_t& probed) const noexcept {
    const std::size_t t = static_cast<std::size_t>(trial);
    const Slot* const region = slots_.data() + base_[t];
    const std::size_t mask = mask_[t];
    for (std::size_t i = home;; i = (i + 1) & mask) {
      const Slot& slot = region[i];
      ++probed;
      if (slot.count == 0) return {};
      if (slot.kmer == kmer) {
        return {subjects_.data() + slot.offset, slot.count};
      }
    }
  }

  /// Raw-part access for the index artifact: the slot array, per-trial
  /// region geometry and postings pool exactly as built.
  [[nodiscard]] std::span<const Slot> slots() const noexcept {
    return slots_;
  }
  [[nodiscard]] std::span<const std::size_t> bases() const noexcept {
    return base_;
  }
  [[nodiscard]] std::span<const std::size_t> masks() const noexcept {
    return mask_;
  }
  [[nodiscard]] std::span<const io::SeqId> subjects() const noexcept {
    return subjects_;
  }

  /// Reconstructs an index from persisted raw parts (the inverse of the
  /// accessors above). Validates the geometry — region sizes power-of-two
  /// and contiguous, every slot's postings span inside the pool, occupied
  /// slot count equal to `keys` — and throws std::invalid_argument on any
  /// violation, so a corrupted artifact can never produce an index whose
  /// probe loop reads out of bounds or spins forever.
  [[nodiscard]] static FlatSketchIndex from_parts(
      std::vector<Slot> slots, std::vector<std::size_t> base,
      std::vector<std::size_t> mask, std::vector<io::SeqId> subjects,
      std::size_t keys);

 private:
  [[nodiscard]] static std::uint64_t hash(KmerCode kmer) noexcept {
    return util::mix64(kmer);
  }

  /// Home slot of `kmer` in trial `t`, relative to the trial's region.
  [[nodiscard]] std::size_t home(int trial, KmerCode kmer) const noexcept {
    return hash(kmer) & mask_[static_cast<std::size_t>(trial)];
  }

  std::vector<Slot> slots_;         // concatenated per-trial pow2 regions
  std::vector<std::size_t> base_;   // trial -> first slot
  std::vector<std::size_t> mask_;   // trial -> region capacity - 1
  std::vector<io::SeqId> subjects_;  // shared postings pool
  std::size_t keys_ = 0;
};

}  // namespace jem::core
