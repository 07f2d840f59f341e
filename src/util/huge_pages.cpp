#include "util/huge_pages.hpp"

#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace jem::util {

std::size_t hint_huge_pages(void* data, std::size_t size) noexcept {
#if defined(MADV_HUGEPAGE)
  constexpr std::uintptr_t kHugePage = std::uintptr_t{1} << 21;
  if (data == nullptr || size < kHugePage) return 0;
  const auto begin = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t first = (begin + kHugePage - 1) & ~(kHugePage - 1);
  const std::uintptr_t last = (begin + size) & ~(kHugePage - 1);
  if (last <= first) return 0;
  if (madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE) !=
      0) {
    return 0;
  }
  return last - first;
#else
  (void)data;
  (void)size;
  return 0;
#endif
}

}  // namespace jem::util
