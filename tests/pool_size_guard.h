/**
 * @file
 * Test helper: pins the global thread pool to a lane count for one
 * scope and restores the default size afterwards.
 */

#ifndef TREEVQA_TESTS_POOL_SIZE_GUARD_H
#define TREEVQA_TESTS_POOL_SIZE_GUARD_H

#include <cstddef>

#include "common/thread_pool.h"

namespace treevqa {

/** Sets the global pool to `threads` lanes for one test scope. */
class PoolSizeGuard
{
  public:
    explicit PoolSizeGuard(std::size_t threads)
    {
        ThreadPool::global().resize(threads);
    }
    ~PoolSizeGuard() { ThreadPool::global().resize(0); }

    PoolSizeGuard(const PoolSizeGuard &) = delete;
    PoolSizeGuard &operator=(const PoolSizeGuard &) = delete;
};

} // namespace treevqa

#endif // TREEVQA_TESTS_POOL_SIZE_GUARD_H
