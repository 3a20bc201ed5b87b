#include "counting_new.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocations{0};

} // namespace

std::uint64_t
udp::allocationCount()
{
    return g_allocations.load(std::memory_order_relaxed);
}

// libstdc++'s array and nothrow forms forward to these two. The
// replacements live in their own translation unit so no caller inlines a
// delete and sees free() applied to memory from operator new.
void*
operator new(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n)) {
        return p;
    }
    throw std::bad_alloc();
}

void*
operator new(std::size_t n, std::align_val_t align)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) {
        return p;
    }
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
