#include "util/huge_pages.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

namespace jem::util {
namespace {

constexpr std::size_t kHugePage = std::size_t{1} << 21;

/// The first 2 MiB-aligned byte of `buffer` that has `room` bytes after it.
char* aligned_inside(std::vector<char>& buffer, std::size_t room) {
  const auto begin = reinterpret_cast<std::uintptr_t>(buffer.data());
  const std::uintptr_t aligned = (begin + kHugePage) & ~(kHugePage - 1);
  char* at = buffer.data() + (aligned - begin);
  EXPECT_LE(at + room, buffer.data() + buffer.size());
  return at;
}

TEST(HugePages, EmptyOrNullRangesAreNoOps) {
  EXPECT_EQ(hint_huge_pages(nullptr, 0), 0u);
  EXPECT_EQ(hint_huge_pages(nullptr, 4 * kHugePage), 0u);
  std::vector<char> buffer(64, 'x');
  EXPECT_EQ(hint_huge_pages(buffer.data(), 0), 0u);
}

TEST(HugePages, RangesWithoutAWholeAlignedHugePageAreNoOps) {
  std::vector<char> buffer(4 * kHugePage, 'x');
  char* aligned = aligned_inside(buffer, 2 * kHugePage);
  // Shorter than a huge page, aligned or not.
  EXPECT_EQ(hint_huge_pages(aligned, kHugePage - 1), 0u);
  EXPECT_EQ(hint_huge_pages(aligned + 1, 4096), 0u);
  // A huge page's length, but straddling two aligned pages.
  EXPECT_EQ(hint_huge_pages(aligned + 1, kHugePage), 0u);
  EXPECT_EQ(hint_huge_pages(aligned - 1, kHugePage), 0u);
}

TEST(HugePages, HintsOnlyTheAlignedInterior) {
  std::vector<char> buffer(4 * kHugePage, 'x');
  char* aligned = aligned_inside(buffer, 2 * kHugePage);
  // One byte either side of one aligned huge page: only that page is hinted
  // (or nothing, where the kernel or system has no such hint).
  const std::size_t hinted = hint_huge_pages(aligned - 1, kHugePage + 2);
  EXPECT_TRUE(hinted == 0 || hinted == kHugePage) << hinted;
  const auto begin = reinterpret_cast<std::uintptr_t>(buffer.data());
  const std::size_t interior =
      ((begin + buffer.size()) & ~(kHugePage - 1)) -
      ((begin + kHugePage - 1) & ~(kHugePage - 1));
  const std::size_t whole = hint_huge_pages(buffer.data(), buffer.size());
  EXPECT_TRUE(whole == 0 || whole == interior) << whole;
}

TEST(HugePages, MemoryStaysReadableAndWritable) {
  std::vector<unsigned char> buffer(5 * kHugePage + 123);
  std::iota(buffer.begin(), buffer.end(), static_cast<unsigned char>(7));
  const std::vector<unsigned char> before = buffer;
  (void)hint_huge_pages(buffer.data(), buffer.size());
  EXPECT_EQ(buffer, before);
  for (unsigned char& byte : buffer) byte = static_cast<unsigned char>(~byte);
  for (std::size_t i = 0; i < buffer.size(); i += 4099) {
    ASSERT_EQ(buffer[i], static_cast<unsigned char>(~before[i])) << i;
  }
}

}  // namespace
}  // namespace jem::util
