/**
 * @file
 * Global allocation counter for zero-allocation tests.
 *
 * Replaces the global operator new/delete with malloc-backed versions
 * that count every allocation in the process. A replacement must be
 * defined once per program, so include this header from exactly one
 * translation unit of a test binary (every test binary here is one
 * file). Single-threaded tests sample the counter around the call
 * under test, so unrelated allocations cannot leak in.
 */

#ifndef RTR_TESTS_ALLOC_COUNTER_H
#define RTR_TESTS_ALLOC_COUNTER_H

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace rtr_test {
inline std::atomic<std::size_t> g_news{0};

/** Allocations performed by @p fn (single-threaded exact count). */
template <typename Fn>
std::size_t
allocationsDuring(Fn &&fn)
{
    const std::size_t before = g_news.load(std::memory_order_relaxed);
    fn();
    return g_news.load(std::memory_order_relaxed) - before;
}
} // namespace rtr_test

void *
operator new(std::size_t size)
{
    rtr_test::g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The replacement operator new above is malloc-backed, so freeing in
// the replacement deletes is correct; GCC's mismatch heuristic cannot
// see through the replacement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

#endif // RTR_TESTS_ALLOC_COUNTER_H
