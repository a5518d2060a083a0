/**
 * @file
 * Replacements of the global operator new and delete that count the
 * bytes live on the heap in blocks of at least 64 KiB and keep their
 * peak (see heap_peak.h). They
 * allocate with malloc/aligned_alloc as the library defaults do, so
 * the allocator's own behaviour is unchanged; only the counting is
 * added. Sizes are malloc_usable_size of each block, so a delete
 * subtracts exactly what its new added.
 */

#include "heap_peak.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <malloc.h>
#include <new>

namespace {

/**
 * Only blocks of at least this many usable bytes are counted. Nearly
 * all of the simulator's memory is in such blocks (tensors, count
 * maps), while counting every small one would put a shared atomic on
 * its hot paths and slow the measured iterations down by about a
 * tenth.
 */
constexpr std::size_t kCountedBytes = 64 * 1024;

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void
count(void *p)
{
    const std::size_t usable = malloc_usable_size(p);
    if (usable < kCountedBytes)
        return;
    const auto n = static_cast<std::int64_t>(usable);
    const std::int64_t live =
        g_live.fetch_add(n, std::memory_order_relaxed) + n;
    std::int64_t peak = g_peak.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed))
    {
    }
}

void *
allocate(std::size_t size, std::size_t align)
{
    if (size == 0)
        size = 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(size)
                  : std::aligned_alloc(align, (size + align - 1) / align *
                                                  align);
    if (p == nullptr)
        throw std::bad_alloc();
    count(p);
    return p;
}

void
release(void *p) noexcept
{
    if (p == nullptr)
        return;
    const std::size_t usable = malloc_usable_size(p);
    if (usable >= kCountedBytes)
        g_live.fetch_sub(static_cast<std::int64_t>(usable),
                         std::memory_order_relaxed);
    std::free(p);
}

constexpr std::size_t kPlain = alignof(std::max_align_t);

} // namespace

namespace perfbench {

std::uint64_t
peakHeapBytes()
{
    return static_cast<std::uint64_t>(g_peak.load());
}

} // namespace perfbench

// clang-format off
void *operator new(std::size_t n) { return allocate(n, kPlain); }
void *operator new[](std::size_t n) { return allocate(n, kPlain); }
void *operator new(std::size_t n, std::align_val_t a)
{ return allocate(n, static_cast<std::size_t>(a)); }
void *operator new[](std::size_t n, std::align_val_t a)
{ return allocate(n, static_cast<std::size_t>(a)); }
void *operator new(std::size_t n, const std::nothrow_t &) noexcept
try { return allocate(n, kPlain); } catch (...) { return nullptr; }
void *operator new[](std::size_t n, const std::nothrow_t &) noexcept
try { return allocate(n, kPlain); } catch (...) { return nullptr; }
void *operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t &) noexcept
try { return allocate(n, static_cast<std::size_t>(a)); }
catch (...) { return nullptr; }
void *operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t &) noexcept
try { return allocate(n, static_cast<std::size_t>(a)); }
catch (...) { return nullptr; }

void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }
void operator delete(void *p, std::align_val_t) noexcept { release(p); }
void operator delete[](void *p, std::align_val_t) noexcept { release(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{ release(p); }
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{ release(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept { release(p); }
void operator delete[](void *p, const std::nothrow_t &) noexcept
{ release(p); }
void operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{ release(p); }
void operator delete[](void *p, std::align_val_t,
                       const std::nothrow_t &) noexcept
{ release(p); }
// clang-format on
