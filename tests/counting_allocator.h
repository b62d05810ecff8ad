// Counting replacements of the global operator new/delete, for tests that
// assert a window of code makes zero heap allocations, or allocates at most
// so many bytes.
//
// Include from exactly one translation unit per test binary: the
// definitions below replace the program-wide allocation functions. Counting
// is always on (two relaxed increments); tests read the g_heap_allocs or
// g_heap_bytes delta around the window they care about. Every form is
// replaced — throwing and nothrow, plain and aligned, scalar and array — so
// no block from the runtime's own operator new (e.g. std::stable_sort's
// nothrow buffer) ever reaches the free() below; under ASan that is an
// alloc-dealloc mismatch.
//
// GCC pairs its builtin model of operator new with the free() it sees in
// the replacement delete and flags every use site, even though this
// malloc-based new/delete pair is consistent — suppress the false positive
// for the including TU.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<long long> g_heap_allocs{0};
/// Bytes requested from operator new, summed; delete never subtracts.
std::atomic<long long> g_heap_bytes{0};

void count_allocation(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(static_cast<long long>(size),
                         std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  count_allocation(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  count_allocation(size);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_allocation(size);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  count_allocation(size);
  return std::aligned_alloc(static_cast<std::size_t>(align),
                            (size + static_cast<std::size_t>(align) - 1) &
                                ~(static_cast<std::size_t>(align) - 1));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(size, align, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
