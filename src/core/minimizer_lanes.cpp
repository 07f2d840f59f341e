// Lane-parallel minimizer scan (kLexicographic, k <= 16), after the
// SimdMinimizers scheme of Groot Koerkamp & Martayan (SEA 2025).
//
// The windows of an ACGT run are cut into L contiguous lane ranges of equal
// length; consecutive lanes overlap by w + k - 2 bases, so every window lies
// whole inside one lane. All L lanes then run the scalar kernel's two-block
// window in lockstep, one k-mer each per step. A k-mer's key packs its
// canonical code above its position, `canon << 32 | position`, so the
// smaller key is the smaller code with ties to the leftmost occurrence —
// the scalar loop's rule — and each compare-and-select becomes one vector
// minimum. Each lane keeps the window minima that differ from its previous
// one; the lanes are merged in order, dropping what the previous lane
// already emitted at each seam.
//
// The kernel is written once in GCC vector arithmetic and inlined into one
// function per instruction set, whose target attribute decides the code:
// 8 lanes on AVX-512BW, 4 on AVX2. Keys are stored with the sign bit
// flipped so a signed minimum orders them as unsigned; AVX2 has only the
// signed 64-bit compare. The build sets no -march: which kernel runs is
// decided at run time (minimizer_lanes_supported).
#include "core/minimizer_lanes.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>

#include "core/dna.hpp"

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#endif

namespace jem::core::detail {

#if defined(__GNUC__) && defined(__x86_64__)

namespace {

/// L 64-bit lanes as GCC vectors: Key holds the sign-flipped keys (signed
/// compares), Word the raw bases and other bit work.
template <int L>
struct Lanes {
  typedef std::int64_t Key __attribute__((vector_size(8 * L)));
  typedef std::uint64_t Word __attribute__((vector_size(8 * L)));
};

constexpr std::int64_t kMaxKey = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// True when the `words` vectors of 8-byte words at `bases` hold only
/// ACGT bases: each byte is checked against the four bases with the exact
/// zero-byte test, and the lanes are reduced once at the end.
template <int L>
[[gnu::always_inline]] inline bool all_acgt(const char* bases, int words) {
  using Word = typename Lanes<L>::Word;
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fu;
  constexpr std::uint64_t kBytes = 0x0101010101010101u;
  Word all = Word{} + ~kLow7;  // high bit of each byte still ACGT
  for (int v = 0; v < words; ++v) {
    Word raw{};
    std::memcpy(&raw, bases + v * sizeof(Word), sizeof raw);
    const Word upper = raw & (0xdf * kBytes);
    Word hit{};  // high bit of each byte that equals one of A, C, G, T
    for (const std::uint64_t base : {'A', 'C', 'G', 'T'}) {
      const Word diff = upper ^ (base * kBytes);
      hit |= ~(((diff & kLow7) + kLow7) | diff);
    }
    all &= hit;
  }
  std::uint64_t acgt = ~kLow7;
  for (int j = 0; j < L; ++j) acgt &= all[j];
  return acgt == ~kLow7;
}

/// The first index in [i, n) that holds no ACGT base, or n: blocks of 8
/// vectors, then single vectors, then the bases one by one.
template <int L>
[[gnu::always_inline]] inline std::size_t acgt_run_end(const char* bases,
                                                       std::size_t i,
                                                       std::size_t n) {
  constexpr std::size_t kVector = sizeof(typename Lanes<L>::Word);
  while (i + 8 * kVector <= n && all_acgt<L>(bases + i, 8)) i += 8 * kVector;
  while (i + kVector <= n && all_acgt<L>(bases + i, 1)) i += kVector;
  while (i < n && base_code(bases[i]) != kInvalidBase) ++i;
  return i;
}

/// Appends the keys of every lane whose row bit is set in `bits[j]` to
/// `dst[j]`, in row order, from `rows` (`count` rows of L keys), and
/// advances each `dst[j]`. Each square of L rows is transposed in registers
/// and every lane's column compacted with one compress; a whole column is
/// stored each time, so up to L - 1 slots past each new end are written.
/// Rows from `count` up to the next multiple of L are read but not kept.
template <int L>
void compact_dense(const std::uint64_t* rows, std::size_t count,
                   const std::uint64_t* bits, std::uint64_t** dst);

template <>
__attribute__((target("avx512f,avx512bw"))) void compact_dense<8>(
    const std::uint64_t* rows, std::size_t count, const std::uint64_t* bits,
    std::uint64_t** dst) {
  const __m512i evens = _mm512_setr_epi64(0, 8, 2, 10, 4, 12, 6, 14);
  const __m512i odds = _mm512_setr_epi64(1, 9, 3, 11, 5, 13, 7, 15);
  const __m512i pairs_low = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
  const __m512i pairs_high = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
  const __m512i quads_low = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
  const __m512i quads_high = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
  for (std::size_t square = 0; square * 8 < count; ++square) {
    __m512i r[8];
    for (int i = 0; i < 8; ++i) {
      r[i] = _mm512_loadu_si512(rows + (square * 8 + i) * 8);
    }
    __m512i t[8];
    for (int i = 0; i < 8; i += 2) {
      t[i] = _mm512_permutex2var_epi64(r[i], evens, r[i + 1]);
      t[i + 1] = _mm512_permutex2var_epi64(r[i], odds, r[i + 1]);
    }
    __m512i u[8];
    for (int i = 0; i < 8; i += 4) {
      u[i] = _mm512_permutex2var_epi64(t[i], pairs_low, t[i + 2]);
      u[i + 1] = _mm512_permutex2var_epi64(t[i], pairs_high, t[i + 2]);
      u[i + 2] = _mm512_permutex2var_epi64(t[i + 1], pairs_low, t[i + 3]);
      u[i + 3] = _mm512_permutex2var_epi64(t[i + 1], pairs_high, t[i + 3]);
    }
    // u[0..3] hold columns 0, 2, 1, 3 of rows 0-3 and columns 4, 6, 5, 7
    // in their upper halves; u[4..7] the same of rows 4-7.
    constexpr int kColumn[4] = {0, 2, 1, 3};
    __m512i columns[8];
    for (int i = 0; i < 4; ++i) {
      columns[kColumn[i]] =
          _mm512_permutex2var_epi64(u[i], quads_low, u[i + 4]);
      columns[kColumn[i] + 4] =
          _mm512_permutex2var_epi64(u[i], quads_high, u[i + 4]);
    }
    for (int j = 0; j < 8; ++j) {
      const auto set = static_cast<__mmask8>(bits[j] >> (square * 8));
      _mm512_storeu_si512(dst[j],
                          _mm512_maskz_compress_epi64(set, columns[j]));
      dst[j] += std::popcount(static_cast<unsigned>(set));
    }
  }
}

template <>
__attribute__((target("avx2"))) void compact_dense<4>(
    const std::uint64_t* rows, std::size_t count, const std::uint64_t* bits,
    std::uint64_t** dst) {
  // The 32-bit permutation that moves the 64-bit lanes set in a 4-bit mask
  // to the front, in order.
  static constexpr auto kCompress = [] {
    std::array<std::array<std::int32_t, 8>, 16> perm{};
    for (unsigned set = 0; set < 16; ++set) {
      int to = 0;
      for (int lane = 0; lane < 4; ++lane) {
        if ((set >> lane & 1) == 0) continue;
        perm[set][2 * to] = 2 * lane;
        perm[set][2 * to + 1] = 2 * lane + 1;
        ++to;
      }
    }
    return perm;
  }();
  for (std::size_t square = 0; square * 4 < count; ++square) {
    __m256i r[4];
    for (int i = 0; i < 4; ++i) {
      r[i] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(rows + (square * 4 + i) * 4));
    }
    const __m256i t0 = _mm256_unpacklo_epi64(r[0], r[1]);
    const __m256i t1 = _mm256_unpackhi_epi64(r[0], r[1]);
    const __m256i t2 = _mm256_unpacklo_epi64(r[2], r[3]);
    const __m256i t3 = _mm256_unpackhi_epi64(r[2], r[3]);
    const __m256i columns[4] = {_mm256_permute2x128_si256(t0, t2, 0x20),
                                _mm256_permute2x128_si256(t1, t3, 0x20),
                                _mm256_permute2x128_si256(t0, t2, 0x31),
                                _mm256_permute2x128_si256(t1, t3, 0x31)};
    for (int j = 0; j < 4; ++j) {
      const auto set = static_cast<unsigned>(bits[j] >> (square * 4)) & 15;
      const __m256i perm = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(kCompress[set].data()));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst[j]),
                          _mm256_permutevar8x32_epi32(columns[j], perm));
      dst[j] += std::popcount(set);
    }
  }
}

/// Scans the ACGT run [begin, end) of `bases` (n bytes in all), which holds
/// at least one window, and appends its minimizers to `out`. `back` and
/// `front` hold w rows of L keys each.
template <int L>
[[gnu::always_inline]] inline void scan_run(
    const char* bases, std::size_t n, std::size_t begin, std::size_t end,
    int k, std::size_t w, std::uint64_t* back, std::uint64_t* front,
    std::array<std::vector<std::uint64_t>, 8>& minima,
    std::vector<Minimizer>& out) {
  using Key = typename Lanes<L>::Key;
  using Word = typename Lanes<L>::Word;
  constexpr std::size_t kRow = sizeof(Key);

  const std::size_t kmers = end - begin - static_cast<std::size_t>(k) + 1;
  const std::size_t windows = kmers - w + 1;
  const std::size_t per_lane = (windows + L - 1) / L;
  const std::size_t steps = per_lane + w - 1;  // k-mers per lane
  // The last lanes start early enough to end at the run's last window; a
  // window scanned twice is dropped at the merge.
  std::size_t first[L] = {};
  Key pos{};  // sign bit | position of each lane's current k-mer
  for (int j = 0; j < L; ++j) {
    first[j] = begin + std::min(j * per_lane, windows - per_lane);
    pos[j] = static_cast<std::int64_t>(kSignBit | first[j]);
  }

  const Key mask = Key{} + ((std::int64_t{1} << (2 * k)) - 1);
  const int rc_shift = 2 * (k - 1);
  const std::size_t fill = static_cast<std::size_t>(k) - 1;
  Key fwd{};
  Key rc{};
  Key best = Key{} + kMaxKey;  // the back block's prefix minimum
  Key prev = best;             // each lane's previous window minimum
  std::size_t s = 0;           // back-block rows filled
  // Window minima are buffered 64 steps at a time; bit i of a lane's word
  // in `changed` says row i differs from the window before it. Rows past
  // the last one written still hold zeros or older rows: a partial square
  // reads them and keeps none.
  std::uint64_t window[64 * L] = {};
  Key changed{};
  std::size_t buffered = 0;
  std::size_t found[L] = {};  // minima[j][0, found[j]) are lane j's so far
  const auto flush = [&] {
    std::uint64_t words[L] = {};
    std::memcpy(words, &changed, sizeof words);
    // A lane with few changes copies them one by one. A tandem repeat
    // changes its minimum every window or two; then the rows are
    // transposed and each lane compacted L keys at a time.
    bool dense = false;
    for (int j = 0; j < L; ++j) dense |= std::popcount(words[j]) > 8;
    std::uint64_t* dst[L] = {};
    for (int j = 0; j < L; ++j) {
      if (minima[j].size() < found[j] + 64 + L) {
        minima[j].resize(std::max(2 * minima[j].size(), found[j] + 64 + L));
      }
      dst[j] = minima[j].data() + found[j];
      if (dense) continue;
      for (std::uint64_t bits = words[j]; bits != 0; bits &= bits - 1) {
        *dst[j]++ = window[std::countr_zero(bits) * L + j];
      }
    }
    if (dense) compact_dense<L>(window, buffered, words, dst);
    for (int j = 0; j < L; ++j) {
      found[j] = static_cast<std::size_t>(dst[j] - minima[j].data());
    }
    changed = Key{};
    buffered = 0;
  };

  const std::size_t total = steps + fill;  // bases per lane
  const std::size_t first_window = fill + w - 1;
  for (std::size_t group = 0; group < total; group += 8) {
    // The next 8 bases of every lane. Lane L-1 starts last, so if its load
    // stays inside the sequence every lane's does.
    Word raw{};
    const bool inside = first[L - 1] + group + 8 <= n;
    for (int j = 0; j < L; ++j) {
      const std::size_t at = first[j] + group;
      std::uint64_t eight = 0;
      if (inside) {
        std::memcpy(&eight, bases + at, 8);
      } else {
        std::memcpy(&eight, bases + at, std::min<std::size_t>(8, n - at));
      }
      raw[j] = eight;
    }
    // A=0 C=1 G=2 T=3 in either case: bits 1-2 xor bits 2-3 of the byte.
    Word codes = ((raw >> 1) ^ (raw >> 2)) & 0x0303030303030303u;
    const std::size_t group_end = std::min(group + 8, total);
    for (std::size_t b = group; b < group_end; ++b, codes >>= 8) {
      const Key code = (Key)(codes & 3);
      fwd = ((fwd << 2) | code) & mask;
      rc = (rc >> 2) | ((code ^ 3) << rc_shift);
      if (b < fill) continue;

      const Key canon = fwd < rc ? fwd : rc;
      const Key key = (Key)(((Word)canon << 32) ^ (Word)pos);
      pos += 1;
      std::memcpy(back + s * L, &key, kRow);
      best = key < best ? key : best;

      if (++s == w) {
        // The back block is full: turn it into suffix minima, the front.
        Key min = Key{} + kMaxKey;
        for (std::size_t j = w; j-- > 0;) {
          Key row{};
          std::memcpy(&row, back + j * L, kRow);
          min = row < min ? row : min;
          std::memcpy(front + j * L, &min, kRow);
        }
        s = 0;
        best = Key{} + kMaxKey;
      }

      if (b >= first_window) {
        Key suffix{};
        std::memcpy(&suffix, front + s * L, kRow);
        const Key win = suffix < best ? suffix : best;
        changed |= (win != prev) &
                   static_cast<std::int64_t>(std::uint64_t{1} << buffered);
        prev = win;
        std::memcpy(window + buffered * L, &win, kRow);
        if (++buffered == 64) flush();
      }
    }
  }
  flush();

  // Merge: each lane's minima ascend; the ones at or before the last
  // position emitted came from windows the previous lane already scanned.
  // Keys unpack L at a time into L (k-mer, position) records, the position
  // written as a whole 64-bit word over the record's padding: `low` and
  // `high` interleave the k-mers and positions of the first and the second
  // L/2 keys.
  Word low{};
  Word high{};
  for (int i = 0; i < L; ++i) {
    low[i] = static_cast<std::uint64_t>((i % 2) * L + i / 2);
    high[i] = low[i] + L / 2;
  }
  for (int j = 0; j < L; ++j) {
    const std::uint64_t* from = minima[j].data();
    const std::uint64_t* const to = from + found[j];
    if (j > 0) {
      const std::uint32_t last = out.back().position;
      while (from != to && static_cast<std::uint32_t>(*from) <= last) ++from;
    }
    const std::size_t count = out.size();
    out.resize(count + static_cast<std::size_t>(to - from));
    Minimizer* dst = out.data() + count;
    for (; to - from >= L; from += L, dst += L) {
      Word keys{};
      std::memcpy(&keys, from, sizeof keys);
      const Word kmers = (keys >> 32) ^ (kSignBit >> 32);
      const Word positions = keys & 0xffffffffu;
      const Word first = __builtin_shuffle(kmers, positions, low);
      const Word second = __builtin_shuffle(kmers, positions, high);
      std::memcpy(static_cast<void*>(dst), &first, sizeof first);
      std::memcpy(static_cast<void*>(dst + L / 2), &second, sizeof second);
    }
    for (; from != to; ++from, ++dst) {
      *dst = {(*from >> 32) ^ (kSignBit >> 32),
              static_cast<std::uint32_t>(*from)};
    }
  }
}

/// The lane kernel over a whole sequence: long ACGT runs go to scan_run,
/// everything else to the scalar loop.
template <int L>
[[gnu::always_inline]] inline void scan_lanes(std::string_view seq,
                                              const MinimizerParams& p,
                                              MinimizerScratch& scratch,
                                              std::vector<Minimizer>& out) {
  const auto w = static_cast<std::size_t>(p.w);
  const auto k = static_cast<std::size_t>(p.k);
  const char* const bases = seq.data();
  const std::size_t n = seq.size();
  std::size_t i = 0;
  while (i < n) {
    if (base_code(bases[i]) == kInvalidBase) {
      ++i;
      continue;
    }
    const std::size_t end = acgt_run_end<L>(bases, i, n);
    const std::size_t len = end - i;
    if (len + 2 >= k + w + L * kMinLaneWindows) {
      if (scratch.keys.size() < w * L) scratch.keys.resize(w * L);
      if (scratch.suffix_keys.size() < w * L) {
        scratch.suffix_keys.resize(w * L);
      }
      scan_run<L>(bases, n, i, end, p.k, w, scratch.keys.data(),
                  scratch.suffix_keys.data(), scratch.lane_minima, out);
    } else {
      minimizer_scan_scalar(seq.substr(i, len), i, p, scratch, out);
    }
    i = end;
  }
}

__attribute__((target("avx512f,avx512bw"))) void scan_lanes8(
    std::string_view seq, const MinimizerParams& p,
    MinimizerScratch& scratch, std::vector<Minimizer>& out) {
  scan_lanes<8>(seq, p, scratch, out);
}

__attribute__((target("avx2"))) void scan_lanes4(
    std::string_view seq, const MinimizerParams& p,
    MinimizerScratch& scratch, std::vector<Minimizer>& out) {
  scan_lanes<4>(seq, p, scratch, out);
}

}  // namespace

bool minimizer_lanes_supported(int lanes) noexcept {
  __builtin_cpu_init();
  switch (lanes) {
    case 1:
      return true;
    case 4:
      return __builtin_cpu_supports("avx2");
    case 8:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw");
    default:
      return false;
  }
}

void lane_scan(int lanes, std::string_view seq, const MinimizerParams& p,
               MinimizerScratch& scratch, std::vector<Minimizer>& out) {
  if (lanes == 8) {
    scan_lanes8(seq, p, scratch, out);
  } else {
    scan_lanes4(seq, p, scratch, out);
  }
}

#else  // no lane kernels off x86-64: the scalar loop runs everywhere

bool minimizer_lanes_supported(int lanes) noexcept { return lanes == 1; }

void lane_scan(int /*lanes*/, std::string_view seq, const MinimizerParams& p,
               MinimizerScratch& scratch, std::vector<Minimizer>& out) {
  minimizer_scan_scalar(seq, 0, p, scratch, out);
}

#endif

}  // namespace jem::core::detail
