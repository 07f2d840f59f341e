// Transparent huge page hint for large, freshly allocated buffers. Filling a
// buffer of hundreds of megabytes costs one page fault per 4 KiB page; on a
// kernel whose THP mode is `madvise`, asking for huge pages first cuts that
// to one fault per 2 MiB.
#pragma once

#include <cstddef>

namespace jem::util {

/// Asks the kernel to back the 2 MiB-aligned interior of [data, data + size)
/// with transparent huge pages (Linux `madvise(MADV_HUGEPAGE)`). Memory
/// outside that interior, and the contents, are left as they are. Returns
/// the bytes hinted: 0 for a null or empty range, one that holds no whole
/// aligned 2 MiB page, a kernel that refuses the hint, or a system without
/// it.
std::size_t hint_huge_pages(void* data, std::size_t size) noexcept;

}  // namespace jem::util
