#include "src/common/arena.h"

namespace declust {

Arena::~Arena() {
  for (Chunk* list : {chunks_, spare_}) {
    while (list != nullptr) {
      Chunk* next = list->next;
      ::operator delete(list);
      list = next;
    }
  }
}

void* Arena::AllocateSlow(size_t n, size_t align) {
  // Payload must fit after the header at worst-case alignment slack.
  const size_t need = n + align + sizeof(Chunk);
  Chunk* chunk = nullptr;
  if (spare_ != nullptr && spare_->size + sizeof(Chunk) >= need) {
    chunk = spare_;
    spare_ = spare_->next;
  } else {
    size_t bytes = next_chunk_bytes_;
    while (bytes < need) bytes *= 2;
    chunk = static_cast<Chunk*>(::operator new(bytes));
    chunk->size = bytes - sizeof(Chunk);
    bytes_reserved_ += bytes;
    if (next_chunk_bytes_ < kMaxChunkBytes) next_chunk_bytes_ *= 2;
  }
  chunk->next = chunks_;
  chunks_ = chunk;
  cursor_ = reinterpret_cast<uintptr_t>(chunk + 1);
  limit_ = cursor_ + chunk->size;
  uintptr_t p = (cursor_ + (align - 1)) & ~(uintptr_t{align} - 1);
  cursor_ = p + n;
  bytes_used_ += n;
  return reinterpret_cast<void*>(p);
}

void Arena::Reset() {
  // Move every in-use chunk onto the spare list; the next run re-fills
  // them without touching the heap.
  while (chunks_ != nullptr) {
    Chunk* next = chunks_->next;
    chunks_->next = spare_;
    spare_ = chunks_;
    chunks_ = next;
  }
  cursor_ = 0;
  limit_ = 0;
  bytes_used_ = 0;
}

FrameCache::~FrameCache() {
  // Every block lives in a chunk, so the free lists need no walk.
  while (chunks_ != nullptr) {
    Chunk* next = chunks_->next;
    ::operator delete(chunks_);
    chunks_ = next;
  }
}

void* FrameCache::Carve(size_t bytes) {
  if (static_cast<size_t>(limit_ - cursor_) < bytes) {
    // The current chunk's tail becomes one free block of its own class.
    if (limit_ - cursor_ >= static_cast<ptrdiff_t>(kGranularity)) {
      Push(ClassOf(static_cast<size_t>(limit_ - cursor_)), cursor_);
    }
    Chunk* chunk = static_cast<Chunk*>(::operator new(kChunkBytes));
    chunk->next = chunks_;
    chunks_ = chunk;
    cursor_ = reinterpret_cast<char*>(chunk + 1);
    limit_ = reinterpret_cast<char*>(chunk) + kChunkBytes;
  }
  void* p = cursor_;
  cursor_ += bytes;
  return p;
}

FrameCache& FrameCache::Local() {
  thread_local FrameCache cache;
  return cache;
}

}  // namespace declust
