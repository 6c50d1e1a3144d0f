#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace mapbench {
namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> count{0};

void* counted_alloc(std::size_t size) {
  if (counting.load(std::memory_order_relaxed)) count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void set_alloc_counting(bool on) noexcept { counting.store(on, std::memory_order_relaxed); }

std::uint64_t allocations() noexcept { return count.load(std::memory_order_relaxed); }

}  // namespace mapbench

void* operator new(std::size_t size) { return mapbench::counted_alloc(size); }
void* operator new[](std::size_t size) { return mapbench::counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
