// Trial-parallel sketch kernels: the T trials of Algorithm 1 run in SIMD
// lanes, 8 per vector on AVX-512F+DQ and 4 on AVX2.
//
// The trials never depend on one another, so trial t of a group of L runs
// in lane t. One walk over the minimizers serves a whole group: each step
// hashes the minimizer under the L trials at once with the divide-free
// modulo (core/hash_family.hpp) and updates every lane's running minimum by
// (hash, k-mer) with vector compares. The block decomposition and the order
// of the walk are the scalar loop's (core/sketch.hpp); the interval minimum
// of every step is stored as a row of L k-mers, and bit i of a lane's emit
// mask says that row i differs from the row walked before it. Afterwards
// each lane's set bits are copied, lowest row first, to its trial's column
// of out.kmers. A one-block column is then final: its rows are suffix
// minima, which only change to a strictly lower (hash, k-mer), so they are
// distinct. A column of several blocks can repeat a minimum out of turn and
// is sorted and deduplicated, as in the scalar loop.
//
// A one-block query list takes the same suffix-minimum walk with a second
// sink (jem_set_trials): where a lane's minimum changes, the lane's trial
// bit is or-ed into the trial-set word of that minimizer, and nothing is
// stored by row or copied out by column.
//
// Hashes and k-mers are below 2^62 and 2^32, so the lanes compare them as
// signed 64-bit words (AVX2 has only the signed compare) and INT64_MAX
// stands for "no minimum yet". The kernels are written once in GCC vector
// arithmetic and inlined into one function per instruction set, as in
// src/core/minimizer_lanes.cpp; which one runs is decided at run time.
#include "core/sketch_lanes.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace jem::core::detail {

#if defined(__GNUC__) && defined(__x86_64__)

namespace {

/// L 64-bit lanes as GCC vectors: Key for signed compares and selects, Word
/// for wrapping arithmetic and bits, Real for the quotient estimate.
template <int L>
struct Lanes {
  typedef std::int64_t Key __attribute__((vector_size(8 * L)));
  typedef std::uint64_t Word __attribute__((vector_size(8 * L)));
  typedef double Real __attribute__((vector_size(8 * L)));
};

constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::max();
/// The bits of the double 2^52: or-ing an x < 2^52 into its mantissa gives
/// 2^52 + x, and a double in [2^52, 2^53) is an integer in its mantissa.
constexpr std::uint64_t kTwo52 = 0x4330000000000000u;

template <class V, class T>
[[gnu::always_inline]] inline void load(const T* from, V& v) {
  std::memcpy(&v, from, sizeof v);
}

template <class V, class T>
[[gnu::always_inline]] inline void store(T* to, const V& v) {
  std::memcpy(to, &v, sizeof v);
}

/// The hash functions of L consecutive trials.
template <int L>
struct TrialGroup {
  using Key = typename Lanes<L>::Key;
  using Word = typename Lanes<L>::Word;
  using Real = typename Lanes<L>::Real;

  Word a{}, b{}, p{};
  Real a_over_p{}, b_over_p{};

  [[gnu::always_inline]] TrialGroup(const TrialConstants& c,
                                    std::size_t first) {
    load(c.a.data() + first, a);
    load(c.b.data() + first, b);
    load(c.p.data() + first, p);
    load(c.a_over_p.data() + first, a_over_p);
    load(c.b_over_p.data() + first, b_over_p);
  }

  /// Sets `h` to (a·x + b) mod p in every lane, for x < 2^32. Adding 2^52
  /// rounds the quotient estimate to an integer q̂ in {q, q + 1}, so
  /// r = a·x + b − q̂·p (wrapping) lies in [−p, p) and one conditional add
  /// makes it exact. (Vectors go by reference: none crosses a call from
  /// the target functions.)
  [[gnu::always_inline]] void hash(KmerCode x, Key& h) const {
    const Word xs = Word{} + x;
    const Real xd = (Real)(xs | kTwo52) - 0x1p52;
    const Real estimate = xd * a_over_p + b_over_p + 0x1p52;
    const Word q = (Word)estimate - kTwo52;
    const Key r = (Key)(a * xs + b - q * p);
    h = r < 0 ? r + (Key)p : r;
  }
};

/// Lowers (best_h, best_k) to (h, k) in the lanes where (h, k) is strictly
/// below it. Each compare is the condition of its own select: GCC lowers a
/// compare whose mask is kept as a value lane by lane in a function without
/// the target attribute, before it is inlined into one that has it.
template <class Key>
[[gnu::always_inline]] inline void take_min(const Key& h, const Key& k,
                                            Key& best_h, Key& best_k) {
  const Key tie = k < best_k ? k : best_k;
  best_k = h < best_h ? k : (h == best_h ? tie : best_k);
  best_h = h < best_h ? h : best_h;
}

/// The one-block walk of a group: every lane's suffix minimum by (hash,
/// k-mer) over kmers[begin, end), last to first. Calls record(i, h, best_k)
/// at each minimizer i with its hashes and the lanes' minima so far. A
/// lane's minimum changes exactly where it strictly improves: a k-mer that
/// ties the minimum is the minimum's own k-mer.
template <int L, class Record>
[[gnu::always_inline]] inline void suffix_minima(const TrialGroup<L>& group,
                                                 const KmerCode* kmers,
                                                 std::size_t begin,
                                                 std::size_t end,
                                                 Record&& record) {
  using Key = typename Lanes<L>::Key;
  Key h{};
  Key best_h = Key{} + kNone;
  Key best_k = Key{} + kNone;
  for (std::size_t i = end; i-- > begin;) {
    const Key k = Key{} + static_cast<std::int64_t>(kmers[i]);
    group.hash(kmers[i], h);
    take_min(h, k, best_h, best_k);
    record(i, h, best_k);
  }
}

template <int L>
[[gnu::always_inline]] inline void jem_trials(std::size_t count,
                                              const HashFamily& hashes,
                                              SketchScratch& scratch,
                                              FlatSketch& out) {
  using Key = typename Lanes<L>::Key;
  using Word = typename Lanes<L>::Word;
  const KmerCode* const kmers = scratch.kmers.data();
  const std::uint32_t* const ends = scratch.ends.data();
  const std::vector<std::uint32_t>& blocks = scratch.blocks;
  const std::size_t last = blocks.size() - 2;  // the last block's index
  const auto trials = static_cast<std::size_t>(hashes.trials());
  const std::size_t chunks = (count + 63) / 64;

  // Rows of L lanes: the group's hashes and interval minima per minimizer,
  // the next block's prefix minima (row 0 is the empty prefix), and one
  // emit mask word per lane per 64 minimizers.
  scratch.hashed.resize(count * L);
  scratch.minima.resize(count * L);
  scratch.prefix_hash.resize((count + 1) * L);
  scratch.prefix_kmer.resize((count + 1) * L);
  scratch.emits.resize(chunks * L);
  std::uint64_t* const hashed = scratch.hashed.data();
  KmerCode* const minima = scratch.minima.data();
  std::uint64_t* const prefix_hash = scratch.prefix_hash.data();
  KmerCode* const prefix_kmer = scratch.prefix_kmer.data();
  std::uint64_t* const emits = scratch.emits.data();
  const Key none = Key{} + kNone;
  store(prefix_hash, none);
  store(prefix_kmer, none);

  out.kmers.resize(trials * count);
  std::size_t written = 0;
  for (std::size_t first = 0; first < trials; first += L) {
    const TrialGroup<L> group(hashes.lanes(), first);
    Key prev = none;  // the minimum of the interval walked before
    Word bits{};
    // Records the minimum of the interval starting at i.
    const auto emit = [&](std::size_t i, const Key& minimum) {
      store(minima + i * L, minimum);
      bits = minimum != prev ? bits | (std::uint64_t{1} << (i % 64)) : bits;
      prev = minimum;
      if (i % 64 == 0) {
        store(emits + (i / 64) * L, bits);
        bits = Word{};
      }
    };

    // Last block: every interval runs to the end of the list, so the
    // interval minimum is the suffix minimum.
    suffix_minima(group, kmers, blocks[last], count,
                  [&](std::size_t i, const Key& hi, const Key& minimum) {
                    store(hashed + i * L, hi);
                    emit(i, minimum);
                  });

    // Earlier blocks, last to first: the next block's prefix minima from
    // its stored hashes, then a backward pass that hashes, keeps the
    // suffix minimum and merges.
    for (std::size_t b = last; b-- > 0;) {
      const std::size_t begin = blocks[b];
      const std::size_t mid = blocks[b + 1];
      const std::size_t stop = blocks[b + 2];
      Key h{};
      Key ph = none;
      Key pk = none;
      for (std::size_t j = mid; j < stop; ++j) {
        const Key k = Key{} + static_cast<std::int64_t>(kmers[j]);
        load(hashed + j * L, h);
        take_min(h, k, ph, pk);
        store(prefix_hash + (j - mid + 1) * L, ph);
        store(prefix_kmer + (j - mid + 1) * L, pk);
      }

      Key best_h = none;
      Key best_k = none;
      for (std::size_t i = mid; i-- > begin;) {
        const Key k = Key{} + static_cast<std::int64_t>(kmers[i]);
        group.hash(kmers[i], h);
        store(hashed + i * L, h);
        take_min(h, k, best_h, best_k);
        // The interval minimum: the suffix minimum or the prefix minimum
        // of the next block up to r(i) - 1, whichever is lower.
        const std::size_t e = ends[i] - mid;
        Key eh{};
        Key ek{};
        load(prefix_hash + e * L, eh);
        load(prefix_kmer + e * L, ek);
        Key min_h = best_h;
        Key min_k = best_k;
        take_min(eh, ek, min_h, min_k);
        emit(i, min_k);
      }
    }

    // Each real trial's emitted rows into its column; padding lanes are
    // never read.
    const std::size_t lanes = std::min<std::size_t>(L, trials - first);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      KmerCode* const column = out.kmers.data() + written;
      std::size_t emitted = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        for (std::uint64_t word = emits[c * L + lane]; word != 0;
             word &= word - 1) {
          const std::size_t i = c * 64 + std::countr_zero(word);
          column[emitted++] = minima[i * L + lane];
        }
      }
      if (last > 0) {
        std::sort(column, column + emitted);
        emitted = static_cast<std::size_t>(
            std::unique(column, column + emitted) - column);
      }
      written += emitted;
      out.offsets[first + lane + 1] = static_cast<std::uint32_t>(written);
    }
  }
  out.kmers.resize(written);
}

template <int L>
[[gnu::always_inline]] inline void jem_set_trials(std::size_t count,
                                                  const KmerCode* kmers,
                                                  const HashFamily& hashes,
                                                  std::uint64_t* sets) {
  using Key = typename Lanes<L>::Key;
  using Word = typename Lanes<L>::Word;
  const auto trials = static_cast<std::size_t>(hashes.trials());
  const std::size_t words = trial_set_words(trials);
  for (std::size_t first = 0; first < trials; first += L) {
    const TrialGroup<L> group(hashes.lanes(), first);
    // Each lane's bit in its trial-set word; 0 in the padding lanes past
    // the last trial. L divides 64, so a group never straddles two words.
    std::uint64_t bit_of[L];
    for (std::size_t lane = 0; lane < L; ++lane) {
      const std::size_t t = first + lane;
      bit_of[lane] = t < trials ? std::uint64_t{1} << (t % 64) : 0;
    }
    Word lane_bits{};
    load(bit_of, lane_bits);
    std::uint64_t* const word = sets + first / 64;
    Key prev = Key{} + kNone;
    suffix_minima(group, kmers, 0, count,
                  [&](std::size_t i, const Key&, const Key& minimum) {
                    const Word marked = minimum != prev ? lane_bits : Word{};
                    prev = minimum;
                    std::uint64_t bits = 0;
                    for (int lane = 0; lane < L; ++lane) bits |= marked[lane];
                    word[i * words] |= bits;
                  });
  }
}

template <int L>
[[gnu::always_inline]] inline void minhash_trials(
    std::span<const KmerCode> kmers, const HashFamily& hashes,
    FlatSketch& out) {
  using Key = typename Lanes<L>::Key;
  const auto trials = static_cast<std::size_t>(hashes.trials());
  for (std::size_t first = 0; first < trials; first += L) {
    const TrialGroup<L> group(hashes.lanes(), first);
    Key h{};
    Key best_h = Key{} + kNone;
    Key best_k = Key{} + kNone;
    for (const KmerCode x : kmers) {
      group.hash(x, h);
      take_min(h, Key{} + static_cast<std::int64_t>(x), best_h, best_k);
    }
    const std::size_t lanes = std::min<std::size_t>(L, trials - first);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (!kmers.empty()) {
        out.kmers.push_back(static_cast<KmerCode>(best_k[lane]));
      }
      out.offsets.push_back(static_cast<std::uint32_t>(out.kmers.size()));
    }
  }
}

template <int L>
[[gnu::always_inline]] inline void hash_group(const HashFamily& hashes,
                                              KmerCode x,
                                              std::uint64_t* out) {
  const std::size_t padded = hashes.lanes().p.size();
  typename Lanes<L>::Key h{};
  for (std::size_t first = 0; first < padded; first += L) {
    TrialGroup<L>(hashes.lanes(), first).hash(x, h);
    store(out + first, h);
  }
}

__attribute__((target("avx512f,avx512dq"))) void jem_trials8(
    std::size_t count, const HashFamily& hashes, SketchScratch& scratch,
    FlatSketch& out) {
  jem_trials<8>(count, hashes, scratch, out);
}

__attribute__((target("avx2"))) void jem_trials4(std::size_t count,
                                                 const HashFamily& hashes,
                                                 SketchScratch& scratch,
                                                 FlatSketch& out) {
  jem_trials<4>(count, hashes, scratch, out);
}

__attribute__((target("avx512f,avx512dq"))) void jem_set_trials8(
    std::size_t count, const KmerCode* kmers, const HashFamily& hashes,
    std::uint64_t* sets) {
  jem_set_trials<8>(count, kmers, hashes, sets);
}

__attribute__((target("avx2"))) void jem_set_trials4(std::size_t count,
                                                     const KmerCode* kmers,
                                                     const HashFamily& hashes,
                                                     std::uint64_t* sets) {
  jem_set_trials<4>(count, kmers, hashes, sets);
}

__attribute__((target("avx512f,avx512dq"))) void minhash_trials8(
    std::span<const KmerCode> kmers, const HashFamily& hashes,
    FlatSketch& out) {
  minhash_trials<8>(kmers, hashes, out);
}

__attribute__((target("avx2"))) void minhash_trials4(
    std::span<const KmerCode> kmers, const HashFamily& hashes,
    FlatSketch& out) {
  minhash_trials<4>(kmers, hashes, out);
}

__attribute__((target("avx512f,avx512dq"))) void hash_group8(
    const HashFamily& hashes, KmerCode x, std::uint64_t* out) {
  hash_group<8>(hashes, x, out);
}

__attribute__((target("avx2"))) void hash_group4(const HashFamily& hashes,
                                                 KmerCode x,
                                                 std::uint64_t* out) {
  hash_group<4>(hashes, x, out);
}

}  // namespace

bool sketch_lanes_supported(int lanes) noexcept {
  __builtin_cpu_init();
  switch (lanes) {
    case 1:
      return true;
    case 4:
      return __builtin_cpu_supports("avx2");
    case 8:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq");
    default:
      return false;
  }
}

void jem_lanes(int lanes, std::size_t count, const HashFamily& hashes,
               SketchScratch& scratch, FlatSketch& out) {
  if (lanes == 8) {
    jem_trials8(count, hashes, scratch, out);
  } else {
    jem_trials4(count, hashes, scratch, out);
  }
}

void jem_set_lanes(int lanes, std::size_t count, const KmerCode* kmers,
                   const HashFamily& hashes, std::uint64_t* sets) {
  if (lanes == 8) {
    jem_set_trials8(count, kmers, hashes, sets);
  } else {
    jem_set_trials4(count, kmers, hashes, sets);
  }
}

void minhash_lanes(int lanes, std::span<const KmerCode> kmers,
                   const HashFamily& hashes, FlatSketch& out) {
  if (lanes == 8) {
    minhash_trials8(kmers, hashes, out);
  } else {
    minhash_trials4(kmers, hashes, out);
  }
}

void hash_trials(int lanes, const HashFamily& hashes, KmerCode x,
                 std::uint64_t* out) {
  if (lanes == 8) {
    hash_group8(hashes, x, out);
  } else {
    hash_group4(hashes, x, out);
  }
}

#else  // no lane kernels off x86-64: the scalar loops run everywhere

bool sketch_lanes_supported(int lanes) noexcept { return lanes == 1; }

void jem_lanes(int, std::size_t, const HashFamily&, SketchScratch&,
               FlatSketch&) {
  throw std::logic_error("jem_lanes: no lane kernel on this target");
}

void jem_set_lanes(int, std::size_t, const KmerCode*, const HashFamily&,
                   std::uint64_t*) {
  throw std::logic_error("jem_set_lanes: no lane kernel on this target");
}

void minhash_lanes(int, std::span<const KmerCode>, const HashFamily&,
                   FlatSketch&) {
  throw std::logic_error("minhash_lanes: no lane kernel on this target");
}

void hash_trials(int, const HashFamily&, KmerCode, std::uint64_t*) {
  throw std::logic_error("hash_trials: no lane kernel on this target");
}

#endif

}  // namespace jem::core::detail
