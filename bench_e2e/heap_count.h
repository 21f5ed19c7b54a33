// Heap counters of the traced child. They are kept by the counting global
// operator new/delete in count_alloc.cc, which only the traced binary links,
// so untraced children pay nothing for them.
#pragma once

#include <cstdint>

namespace declust::bench {

struct HeapCounts {
  int64_t allocs = 0;      ///< operator new calls so far
  int64_t live_bytes = 0;  ///< usable bytes allocated and not yet freed
  int64_t peak_bytes = 0;  ///< high-water mark of live_bytes
};

HeapCounts ReadHeap();
/// Restarts the high-water mark at the current live bytes.
void ResetHeapPeak();

}  // namespace declust::bench
