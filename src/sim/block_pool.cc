#include "sim/block_pool.h"

#include <sanitizer/asan_interface.h>

#include <new>

namespace reflex::sim {

namespace {

constexpr size_t kClasses = BlockPool::kMaxBytes / BlockPool::kGranule;

/** A free block; the link lives in the block's own (poisoned) bytes. */
struct FreeBlock {
  FreeBlock* next;
};

// Trivially destructible, so still usable while the thread unwinds.
thread_local FreeBlock* free_heads[kClasses + 1] = {};
thread_local bool pool_closed = false;

/** Frees this thread's cached blocks when the thread exits. */
struct Reaper {
  ~Reaper() {
    pool_closed = true;
    for (size_t c = 1; c <= kClasses; ++c) {
      while (FreeBlock* b = free_heads[c]) {
        ASAN_UNPOISON_MEMORY_REGION(b, c * BlockPool::kGranule);
        free_heads[c] = b->next;
        ::operator delete(b);
      }
    }
  }
};

/** Registers the thread's Reaper (first touch constructs it). */
void EnsureReaper() {
  thread_local Reaper reaper;
  (void)reaper;
}

size_t ClassOf(size_t bytes) {
  return (bytes + BlockPool::kGranule - 1) / BlockPool::kGranule;
}

}  // namespace

void* BlockPool::Allocate(size_t bytes) {
  const size_t c = ClassOf(bytes);
  if (c == 0 || c > kClasses || pool_closed) return ::operator new(bytes);
  FreeBlock* b = free_heads[c];
  if (b == nullptr) {
    EnsureReaper();
    return ::operator new(c * kGranule);
  }
  ASAN_UNPOISON_MEMORY_REGION(b, c * kGranule);
  free_heads[c] = b->next;
  return b;
}

void BlockPool::Release(void* block, size_t bytes) noexcept {
  const size_t c = ClassOf(bytes);
  if (c == 0 || c > kClasses || pool_closed) {
    ::operator delete(block);
    return;
  }
  auto* b = static_cast<FreeBlock*>(block);
  b->next = free_heads[c];
  free_heads[c] = b;
  ASAN_POISON_MEMORY_REGION(b, c * kGranule);
}

}  // namespace reflex::sim
