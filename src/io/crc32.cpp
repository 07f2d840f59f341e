#include "io/crc32.hpp"

#include <zlib.h>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace jem::io {
namespace {

#if defined(__x86_64__)
/// The fold kernel's smallest input: one 16-byte block per fold lane.
constexpr std::size_t kFoldMin = 64;

__m128i load(const std::uint8_t* at) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// One 128-bit lane carried forward over `next`: the lane's low and high
/// halves times the two constants of `k`, xored into `next`.
__attribute__((target("pclmul,sse4.2"))) inline __m128i fold(
    __m128i lane, __m128i k, __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                                     _mm_clmulepi64_si128(lane, k, 0x11)),
                       next);
}

/// The CRC register (the inverted CRC) after folding `n` bytes into
/// `state`; `n` is a multiple of 16 and at least 64. The 512 bits in flight
/// are four 128-bit lanes, each carried 512 bits forward per step by
/// carry-less multiplication with x^(512+64) and x^512 mod P. Then the
/// lanes fold into one, it folds forward 128 bits per remaining 16-byte
/// block, and a Barrett reduction leaves 32 bits. All constants are
/// bit-reflected (Gopal et al., 2009).
__attribute__((target("pclmul,sse4.2"))) std::uint32_t fold4(
    std::uint32_t state, const std::uint8_t* p, std::size_t n) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 64 bits through k4, then 64 -> 32 bits through k5.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
      _mm_srli_si128(x1, 4));
  // Barrett reduction by the polynomial P' and its quotient u'.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}
#endif

std::uint32_t zlib_crc(std::uint32_t crc, std::string_view bytes) noexcept {
  return static_cast<std::uint32_t>(crc32_z(
      crc, reinterpret_cast<const Bytef*>(bytes.data()), bytes.size()));
}

}  // namespace

bool detail::crc32_fold4_supported() noexcept {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

std::uint32_t detail::crc32_fold4(std::uint32_t crc,
                                  std::string_view bytes) noexcept {
#if defined(__x86_64__)
  if (bytes.size() >= kFoldMin) {
    const std::size_t folded = bytes.size() & ~std::size_t{15};
    crc = ~fold4(~crc, reinterpret_cast<const std::uint8_t*>(bytes.data()),
                 folded);
    bytes.remove_prefix(folded);
  }
#endif
  return zlib_crc(crc, bytes);
}

int crc32_lanes() noexcept {
  static const int lanes = detail::crc32_fold4_supported() ? 4 : 1;
  return lanes;
}

std::uint32_t crc32(std::uint32_t crc, std::string_view bytes) noexcept {
  return crc32_lanes() == 4 ? detail::crc32_fold4(crc, bytes)
                            : zlib_crc(crc, bytes);
}

}  // namespace jem::io
