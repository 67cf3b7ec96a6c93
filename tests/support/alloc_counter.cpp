// Replacement global allocation functions behind alloc_counter.h. They live
// in their own translation unit so no test inlines a malloc-backed
// operator new into a call site that then frees through operator delete
// (which is what gcc's -Wmismatched-new-delete flags). Every form the
// library can call is replaced together — plain, array, sized and aligned
// — so each allocation is released by its matching deallocation function.
#include "alloc_counter.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::int64_t> g_count{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc wants a size that is a multiple of the alignment.
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace sne::test {

void arm_alloc_counter() noexcept {
  g_count.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_seq_cst);
}

std::int64_t disarm_alloc_counter() noexcept {
  g_armed.store(false, std::memory_order_seq_cst);
  return g_count.load(std::memory_order_relaxed);
}

}  // namespace sne::test

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
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
