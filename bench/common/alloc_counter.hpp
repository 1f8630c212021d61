// Global heap-allocation counter for the micro benches. Linking
// alloc_counter.cpp replaces the global operator new/delete with
// malloc/free wrappers that count every new, so a bench can assert (and
// record as a counter) that a steady-state path performs zero heap
// allocations.
#pragma once

#include <cstdint>

namespace odtn::bench {

/// Calls to the replacement operator new/new[] so far.
std::uint64_t alloc_count();

}  // namespace odtn::bench
