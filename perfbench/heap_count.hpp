// Process-wide live heap bytes, tallied by the counting operator new/delete
// in heap_count.cpp (usable block sizes, all threads, all arenas).
#pragma once

#include <cstdint>

namespace perfbench {

/// Heap bytes currently held through operator new, summed over threads.
[[nodiscard]] std::int64_t live_heap_bytes();

}  // namespace perfbench
