#pragma once
// Benchmark-owned allocation counter: this binary replaces the global
// operator new/delete, and counts calls to operator new while counting is
// switched on (the traced run only; off, the cost is one relaxed load).

#include <cstdint>

namespace mapbench {

void set_alloc_counting(bool on) noexcept;
/// operator new calls counted so far, across all threads.
[[nodiscard]] std::uint64_t allocations() noexcept;

}  // namespace mapbench
