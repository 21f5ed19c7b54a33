// Arena / slab memory subsystem for the simulation hot paths.
//
// Three building blocks, all single-threaded (one instance per Simulation
// or per worker thread, matching the sweep runner's share-nothing model):
//
//  * Arena      — bump-pointer allocator over chained chunks. Allocation is
//                 a pointer increment; nothing is freed individually.
//                 Reset() rewinds to empty while *retaining* the chunks, so
//                 a warmed-up arena never touches the heap again.
//  * SlabPool<T> — typed object pool carved from an Arena with an intrusive
//                 free list. New/Delete are O(1) and allocation-free once
//                 the pool has reached its steady-state population.
//  * FrameCache — thread-local cache of coroutine frames in exact 16-byte
//                 size classes, carved from 64 KiB chunks (wired into
//                 Task's promise operator new/delete). Frames recycle
//                 within a thread without reaching the heap.
//
// Sanitizer note: under AddressSanitizer the FrameCache becomes a
// passthrough to the global heap so ASan keeps seeing every frame's exact
// lifetime (a recycled frame would otherwise hide use-after-free bugs).
// Arena/SlabPool stay active under sanitizers: their memory is never
// returned mid-run, so there is no lifetime to mask.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace declust {

/// \brief Bump-pointer allocator over a chain of geometrically growing
/// chunks. Individual allocations cannot be freed; Reset() recycles every
/// chunk for the next run.
class Arena {
 public:
  explicit Arena(size_t first_chunk_bytes = kDefaultChunkBytes)
      : next_chunk_bytes_(first_chunk_bytes) {}
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `n` bytes aligned to `align` (power of two).
  void* Allocate(size_t n, size_t align = alignof(std::max_align_t)) {
    assert((align & (align - 1)) == 0);
    uintptr_t p = (cursor_ + (align - 1)) & ~(uintptr_t{align} - 1);
    if (p + n > limit_) return AllocateSlow(n, align);
    cursor_ = p + n;
    bytes_used_ += n;
    return reinterpret_cast<void*>(p);
  }

  /// Constructs a T in arena storage. The destructor is never run by the
  /// arena — use only for trivially destructible types or pair with an
  /// explicit destructor call (SlabPool does the latter).
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    return ::new (Allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }

  /// Rewinds to empty, retaining every chunk for reuse.
  void Reset();

  /// Bytes handed out since construction/Reset (excludes alignment waste).
  size_t bytes_used() const { return bytes_used_; }
  /// Total chunk bytes owned (high-water footprint).
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  static constexpr size_t kDefaultChunkBytes = 64 * 1024;
  static constexpr size_t kMaxChunkBytes = 4 * 1024 * 1024;

  struct Chunk {
    Chunk* next;
    size_t size;  // payload bytes following this header
  };

  void* AllocateSlow(size_t n, size_t align);

  Chunk* chunks_ = nullptr;        // chunks in use, most recent first
  Chunk* spare_ = nullptr;         // recycled by Reset, largest first
  uintptr_t cursor_ = 0;
  uintptr_t limit_ = 0;
  size_t next_chunk_bytes_;
  size_t bytes_used_ = 0;
  size_t bytes_reserved_ = 0;
};

/// \brief Typed object pool: O(1) New/Delete over arena storage with an
/// intrusive free list. Steady state performs zero heap allocations.
template <typename T>
class SlabPool {
 public:
  explicit SlabPool(Arena* arena) : arena_(arena) {}

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  ~SlabPool() {
    // All outstanding objects must have been Delete()d (or be trivially
    // destructible); the arena reclaims the raw storage.
    assert(live_ == 0 || std::is_trivially_destructible_v<T>);
  }

  template <typename... Args>
  T* New(Args&&... args) {
    void* p;
    if (free_ != nullptr) {
      p = free_;
      free_ = free_->next;
    } else {
      p = arena_->Allocate(sizeof(Node), alignof(Node));
      ++capacity_;
    }
    ++live_;
    return ::new (p) T(std::forward<Args>(args)...);
  }

  void Delete(T* t) {
    t->~T();
    Node* n = reinterpret_cast<Node*>(t);
    n->next = free_;
    free_ = n;
    --live_;
  }

  /// Objects currently handed out.
  size_t live() const { return live_; }
  /// Objects ever carved from the arena (steady-state population).
  size_t capacity() const { return capacity_; }

 private:
  union Node {
    Node* next;
    alignas(T) unsigned char storage[sizeof(T)];
  };

  Arena* arena_;
  Node* free_ = nullptr;
  size_t live_ = 0;
  size_t capacity_ = 0;
};

#if defined(__SANITIZE_ADDRESS__)
#define DECLUST_ASAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DECLUST_ASAN_ACTIVE 1
#endif
#endif

/// \brief Thread-local size-classed free-list cache for coroutine frames.
///
/// A frame's size is fixed per coroutine at compile time, so exact 16-byte
/// classes (alignof(std::max_align_t)) reuse blocks with at most 15 bytes
/// of round-up. New blocks are carved from 64 KiB chunks, so a frame pays
/// no malloc header either; a freed block goes back to its class's list
/// and is never returned to a chunk. Blocks above kMaxCachedBytes come
/// from the global heap. The cache is per-thread (sweep workers each own
/// their simulations, and a frame is freed on the thread that allocated
/// it), so no locking is needed, and the thread-exit destructor returns
/// every chunk to the heap.
class FrameCache {
 public:
  static constexpr size_t kGranularity = alignof(std::max_align_t);
  static constexpr size_t kMaxCachedBytes = 4096;
  static constexpr size_t kChunkBytes = 64 * 1024;

  static void* Allocate(size_t n) {
#ifdef DECLUST_ASAN_ACTIVE
    return ::operator new(n);
#else
    if (n > kMaxCachedBytes) return ::operator new(n);
    const size_t cls = ClassOf(n);
    FrameCache& c = Local();
    if (FreeBlock* b = c.lists_[cls]; b != nullptr) {
      c.lists_[cls] = b->next;
      return b;
    }
    return c.Carve((cls + 1) * kGranularity);
#endif
  }

  static void Deallocate(void* p, size_t n) {
#ifdef DECLUST_ASAN_ACTIVE
    (void)n;
    ::operator delete(p);
#else
    if (n > kMaxCachedBytes) {
      ::operator delete(p);
      return;
    }
    Local().Push(ClassOf(n), p);
#endif
  }

  ~FrameCache();

 private:
  static constexpr size_t kNumClasses = kMaxCachedBytes / kGranularity;

  struct FreeBlock {
    FreeBlock* next;
  };
  // A chunk's header; its blocks follow it.
  struct alignas(std::max_align_t) Chunk {
    Chunk* next;
  };

  static size_t ClassOf(size_t n) {
    // Class i serves sizes (i*16, (i+1)*16]; n == 0 cannot occur for
    // coroutine frames.
    return (n - 1) / kGranularity;
  }

  static FrameCache& Local();

  void Push(size_t cls, void* p) {
    FreeBlock* b = static_cast<FreeBlock*>(p);
    b->next = lists_[cls];
    lists_[cls] = b;
  }
  // Cuts `bytes` (a multiple of kGranularity) from the current chunk,
  // starting a new chunk when it is short.
  void* Carve(size_t bytes);

  FreeBlock* lists_[kNumClasses] = {};
  Chunk* chunks_ = nullptr;  // most recent first
  char* cursor_ = nullptr;   // the current chunk's uncarved bytes
  char* limit_ = nullptr;
};

}  // namespace declust
