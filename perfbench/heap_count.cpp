// Counting global operator new/delete: every heap block the process holds is
// tallied by its usable size, so "bytes held by X" is the live-byte delta
// across building X. This sees every thread and every malloc arena, unlike
// mallinfo2(), which reports the main arena only.
#include "heap_count.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::int64_t> g_live_bytes{0};

void* counted(void* block) {
  if (block == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(block)),
                         std::memory_order_relaxed);
  return block;
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  void* block = nullptr;
  const auto alignment = static_cast<std::size_t>(align);
  if (posix_memalign(&block,
                     alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? 1 : size) != 0) {
    block = nullptr;
  }
  return counted(block);
}

void release(void* block) noexcept {
  if (block == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(block)),
                         std::memory_order_relaxed);
  std::free(block);
}

}  // namespace

namespace perfbench {

std::int64_t live_heap_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

}  // namespace perfbench

// The array and nothrow forms forward to these by default.
void* operator new(std::size_t size) {
  return counted(std::malloc(size == 0 ? 1 : size));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void operator delete(void* block) noexcept { release(block); }
void operator delete(void* block, std::size_t) noexcept { release(block); }
void operator delete(void* block, std::align_val_t) noexcept {
  release(block);
}
void operator delete(void* block, std::size_t, std::align_val_t) noexcept {
  release(block);
}
