#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

namespace {
std::uint64_t g_count = 0;
std::uint64_t g_bytes = 0;

void* counted_alloc(std::size_t n) {
  ++g_count;
  g_bytes += n;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
}  // namespace

namespace perfbench {
AllocCount alloc_now() { return {g_count, g_bytes}; }
}  // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
