#include "core/minimizer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <stdexcept>

#include "core/minimizer_lanes.hpp"
#include "util/prng.hpp"

namespace jem::core {

namespace {

void validate(const MinimizerParams& p) {
  if (p.k < 1 || p.k > kMaxK) {
    throw std::invalid_argument("minimizer_scan: k out of range");
  }
  if (p.w < 1) {
    throw std::invalid_argument("minimizer_scan: w must be >= 1");
  }
}

/// 2-bit code of every byte value; kInvalidBase outside ACGT/acgt.
constexpr std::array<std::uint8_t, 256> kBaseCodes = [] {
  std::array<std::uint8_t, 256> codes{};
  for (std::size_t c = 0; c < codes.size(); ++c) {
    codes[c] = base_code(static_cast<char>(c));
  }
  return codes;
}();

/// Grows a window block to at least `n` slots (never shrinks, so a scratch
/// reused across window sizes keeps its largest blocks).
template <typename T>
void ensure_slots(std::vector<T>& block, std::size_t n) {
  if (block.size() < n) block.resize(n);
}

/// (key, pos) := (k, p) when k < key, or k <= key with kOrEqual: one
/// compare and two conditional moves. GCC compiles the equivalent `if` to a
/// jump whenever it guesses the condition predictable, and window minima
/// are not; a mispredicted jump costs more than the rest of a k-mer step.
template <bool kOrEqual, typename P>
void take_min(std::uint64_t& key, P& pos, std::uint64_t k, P p) {
#if defined(__GNUC__) && defined(__x86_64__)
  if constexpr (kOrEqual) {
    asm("cmp %[key], %[k]\n\tcmovbe %[k], %[key]\n\tcmovbe %[p], %[pos]"
        : [key] "+r"(key), [pos] "+r"(pos)
        : [k] "r"(k), [p] "r"(p)
        : "cc");
  } else {
    asm("cmp %[key], %[k]\n\tcmovb %[k], %[key]\n\tcmovb %[p], %[pos]"
        : [key] "+r"(key), [pos] "+r"(pos)
        : [k] "r"(k), [p] "r"(p)
        : "cc");
  }
#else
  if (kOrEqual ? k <= key : k < key) {
    key = k;
    pos = p;
  }
#endif
}

/// The scalar scan loop, for both orderings. Appends the minimizers of
/// `seq` to `out`, their positions shifted by `offset`. Per k-mer: roll the
/// two strands, write the ordering key into back-block slot s, fold it into
/// the back's prefix minimum, and select the window minimum between the
/// front's suffix minimum at slot s and that prefix minimum — each a
/// compare and a select on (key, position), never a branch on the data.
/// Under kLexicographic the key is the canonical code itself; kRandomHash
/// also keeps each k-mer's code in a ring indexed by position. The output
/// is written one slot ahead of `count`, which advances only when the
/// window minimum moved.
template <MinimizerOrdering kOrdering>
void scan(std::string_view seq, std::size_t offset, const MinimizerParams& p,
          MinimizerScratch& scratch, std::vector<Minimizer>& out) {
  constexpr bool kHashed = kOrdering == MinimizerOrdering::kRandomHash;
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  const auto w = static_cast<std::uint32_t>(p.w);
  // A block never holds more k-mers than the sequence has, so a w beyond
  // |s| costs no more memory than w = |s|.
  const std::size_t slots = std::min<std::size_t>(w, seq.size());
  ensure_slots(scratch.keys, slots);
  ensure_slots(scratch.suffix_keys, slots);
  ensure_slots(scratch.suffix_pos, slots);
  // A window's k-mers are at most the last `slots` positions, so a ring of
  // at least that many codes still holds every one of them.
  const std::size_t ring_mask = kHashed ? std::bit_ceil(slots) - 1 : 0;
  if constexpr (kHashed) ensure_slots(scratch.canons, ring_mask + 1);
  std::uint64_t* const keys = scratch.keys.data();
  std::uint64_t* const suffix_keys = scratch.suffix_keys.data();
  std::uint32_t* const suffix_pos = scratch.suffix_pos.data();
  KmerCode* const canons = scratch.canons.data();

  // ~2/(w+1) minimizers per k-mer on random input. A block emits at most w
  // (tandem repeats emit one per k-mer), so room for w + 1 more is ensured
  // once per block rather than once per write.
  std::size_t count = out.size();
  out.resize(count + seq.size() * 2 / (w + 1) + 16);
  Minimizer* dst = out.data();
  std::size_t capacity = out.size();
  std::uint64_t last = kNone;  // position of out[count - 1]
  const auto reserve = [&](std::size_t more) {
    if (count + more > capacity) [[unlikely]] {
      out.resize(std::max(2 * capacity, count + more));
      dst = out.data();
      capacity = out.size();
    }
  };
  const auto emit = [&](std::uint64_t key, std::uint64_t pos) {
    const KmerCode canon = kHashed ? canons[pos & ring_mask] : key;
    dst[count] = {canon, static_cast<std::uint32_t>(offset + pos)};
    count += pos != last;
    last = pos;
  };

  const KmerCode mask = KmerCodec(p.k).mask();
  const int rc_shift = 2 * (p.k - 1);
  const std::uint64_t fill = static_cast<std::uint64_t>(p.k) - 1;
  const std::uint64_t first_window = fill + w - 1;
  KmerCode fwd = 0;
  KmerCode rc = 0;
  std::uint64_t run = 0;  // index of the base within its ACGT run
  std::uint32_t s = 0;    // back-block slots filled
  // The back's prefix minimum. Before slot 0 is filled it is the sentinel
  // (kNone, position of slot 0): a key can only tie kNone, and then slot 0
  // is the leftmost minimum anyway.
  std::uint64_t best_key = kNone;
  std::uint64_t best_pos = fill;

  // A run ends at an ambiguous base and at the end of the sequence, where
  // `run` is its length. A run shorter than one window (w k-mers) never
  // filled a block; its single truncated window is the whole run, i.e. the
  // back's prefix minimum.
  const auto end_run = [&] {
    if (run <= first_window && s > 0) {
      reserve(1);
      emit(best_key, best_pos);
    }
    s = 0;
  };

  const std::size_t n = seq.size();
  const char* const bases = seq.data();
  for (std::size_t i = 0; i < n; ++i, ++run) {
    const std::uint8_t code = kBaseCodes[static_cast<unsigned char>(bases[i])];
    if (code == kInvalidBase) [[unlikely]] {
      end_run();
      run = kNone;  // the next base starts a run at 0
      best_key = kNone;
      best_pos = i + 1 + fill;
      continue;
    }
    fwd = ((fwd << 2) | code) & mask;
    rc = (rc >> 2) | (static_cast<KmerCode>(3u - code) << rc_shift);
    if (run < fill) continue;

    const KmerCode canon = std::min(fwd, rc);
    std::uint64_t key = canon;
    if constexpr (kHashed) {
      key = util::mix64(canon);
      canons[(i - fill) & ring_mask] = canon;
    }
    keys[s] = key;
    take_min<false>(best_key, best_pos, key, std::uint64_t{i - fill});

    if (++s == w) {
      // The back block is full: one right-to-left pass turns it into suffix
      // minima (<= keeps the leftmost of equal keys) and it becomes the
      // front. Its window, the whole block, is suffix slot 0.
      const std::uint64_t block = i - fill + 1 - w;  // position of slot 0
      std::uint64_t min_key = kNone;
      std::uint32_t min_slot = w - 1;
      for (std::uint32_t j = w; j-- > 0;) {
        take_min<true>(min_key, min_slot, keys[j], j);
        suffix_keys[j] = min_key;
        suffix_pos[j] = static_cast<std::uint32_t>(block + min_slot);
      }
      s = 0;
      best_key = kNone;
      best_pos = i - fill + 1;
      reserve(w + 1);
    }

    if (run >= first_window) {
      // The window ending here is front slots [s, w) plus back slots
      // [0, s); on a tie the front's (earlier) k-mer wins.
      std::uint64_t window_key = best_key;
      std::uint64_t window_pos = best_pos;
      take_min<true>(window_key, window_pos, suffix_keys[s],
                     std::uint64_t{suffix_pos[s]});
      emit(window_key, window_pos);
    }
  }
  end_run();
  out.resize(count);
}

/// The kernel of this process: the widest one the CPU runs.
int detect_lanes() noexcept {
  for (const int lanes : {8, 4}) {
    if (detail::minimizer_lanes_supported(lanes)) return lanes;
  }
  return 1;
}

}  // namespace

namespace detail {

void minimizer_scan_scalar(std::string_view seq, std::size_t offset,
                           const MinimizerParams& p, MinimizerScratch& scratch,
                           std::vector<Minimizer>& out) {
  if (p.ordering == MinimizerOrdering::kLexicographic) {
    scan<MinimizerOrdering::kLexicographic>(seq, offset, p, scratch, out);
  } else {
    scan<MinimizerOrdering::kRandomHash>(seq, offset, p, scratch, out);
  }
}

void minimizer_scan_with(int lanes, std::string_view seq,
                         const MinimizerParams& p, MinimizerScratch& scratch,
                         std::vector<Minimizer>& out) {
  validate(p);
  out.clear();
  // Lane keys pack the canonical code above a 32-bit position: k <= 16
  // and positions below 2^32. kRandomHash's 64-bit keys leave no room for
  // the position, so it always runs the scalar loop.
  const bool packable = p.ordering == MinimizerOrdering::kLexicographic &&
                        p.k <= kMaxLaneK &&
                        seq.size() <= std::numeric_limits<std::uint32_t>::max();
  if (lanes > 1 && packable) {
    lane_scan(lanes, seq, p, scratch, out);
  } else {
    minimizer_scan_scalar(seq, 0, p, scratch, out);
  }
}

std::size_t minimizer_scan_many_with(int lanes,
                                     std::span<const std::string_view> seqs,
                                     const MinimizerParams& p,
                                     MinimizerScratch& scratch,
                                     std::span<std::vector<Minimizer>> outs) {
  validate(p);
  if (outs.size() < seqs.size()) {
    throw std::invalid_argument("minimizer_scan_many: fewer lists than seqs");
  }
  if (lanes > 1 && p.ordering == MinimizerOrdering::kLexicographic &&
      p.k <= kMaxLaneK) {
    return lane_scan_many(lanes, seqs, p, scratch, outs);
  }
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    outs[i].clear();
    minimizer_scan_scalar(seqs[i], 0, p, scratch, outs[i]);
  }
  return 0;
}

}  // namespace detail

int minimizer_scan_lanes() noexcept {
  static const int lanes = detect_lanes();
  return lanes;
}

void minimizer_scan(std::string_view seq, const MinimizerParams& p,
                    MinimizerScratch& scratch, std::vector<Minimizer>& out) {
  detail::minimizer_scan_with(minimizer_scan_lanes(), seq, p, scratch, out);
}

std::size_t minimizer_scan_many(std::span<const std::string_view> seqs,
                                const MinimizerParams& p,
                                MinimizerScratch& scratch,
                                std::span<std::vector<Minimizer>> outs) {
  return detail::minimizer_scan_many_with(minimizer_scan_lanes(), seqs, p,
                                          scratch, outs);
}

std::vector<Minimizer> minimizer_scan(std::string_view seq,
                                      const MinimizerParams& p) {
  MinimizerScratch scratch;
  std::vector<Minimizer> out;
  minimizer_scan(seq, p, scratch, out);
  return out;
}

}  // namespace jem::core
