// CRC-32 (the gzip trailer's: ISO-HDLC, bit-reflected polynomial
// 0xedb88320) over a byte range, chainable like zlib's crc32_z.
//
// On x86-64 CPUs with PCLMULQDQ and SSE4.2 the bulk of the range runs
// through a fold-by-4 carry-less-multiply kernel (Gopal et al., Intel 2009,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ"), picked
// once per process as the core lanes kernels are. Ranges shorter than
// 64 bytes, the tail shorter than 16 bytes, and every range on other CPUs
// go through zlib's crc32_z.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace jem::io {

/// The CRC-32 of `bytes` continued from `crc`, the CRC of the bytes before
/// them (0 for none): equal to zlib's crc32_z(crc, bytes, size).
[[nodiscard]] std::uint32_t crc32(std::uint32_t crc,
                                  std::string_view bytes) noexcept;

/// The CRC kernel this process runs: 4 for the fold-by-4 kernel, 1 for
/// zlib's table loop. Published as the gauge io.crc32.lanes.
[[nodiscard]] int crc32_lanes() noexcept;

namespace detail {

/// True when this CPU runs crc32_fold4 (x86-64 with PCLMULQDQ and SSE4.2).
[[nodiscard]] bool crc32_fold4_supported() noexcept;

/// crc32() through the fold-by-4 kernel whatever its length; only where
/// crc32_fold4_supported() holds.
[[nodiscard]] std::uint32_t crc32_fold4(std::uint32_t crc,
                                        std::string_view bytes) noexcept;

}  // namespace detail
}  // namespace jem::io
