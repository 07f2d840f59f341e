// A std::vector whose resize() leaves new elements unwritten. For a
// trivially constructible element type, resize(n) then only reserves the
// pages, so the threads that fill disjoint slices of the array are the first
// to touch them (no serial zero-fill pass, and each page faults in on the
// thread that writes it).
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace jem::util {

/// std::allocator whose value-less construct() default-initialises instead
/// of value-initialising; every other construct() forwards unchanged.
template <typename T>
struct UninitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };

  UninitAllocator() = default;
  template <typename U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}  // NOLINT

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

template <typename T>
using UninitVector = std::vector<T, UninitAllocator<T>>;

}  // namespace jem::util
