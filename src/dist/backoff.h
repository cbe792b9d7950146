/**
 * @file
 * Capped exponential backoff, shared by the worker's job retries and
 * the supervisor's slot restarts.
 */

#ifndef TREEVQA_DIST_BACKOFF_H
#define TREEVQA_DIST_BACKOFF_H

#include <algorithm>
#include <cstdint>

namespace treevqa {

/** Longest wait any backoff grows to (unless its base is longer). */
inline constexpr std::int64_t kMaxBackoffMs = 5000;

/**
 * The wait before retry `attempt` (1-based): `baseMs` doubled per
 * attempt after the first, capped at max(baseMs, kMaxBackoffMs). The
 * doubling stops at the cap, so every attempt count is defined (a
 * plain `baseMs << (attempt - 1)` overflows from attempt 64 on).
 */
inline std::int64_t
cappedBackoffMs(std::int64_t baseMs, int attempt)
{
    const std::int64_t cap = std::max(baseMs, kMaxBackoffMs);
    std::int64_t wait = baseMs;
    for (int k = 1; k < attempt && wait < cap; ++k)
        wait *= 2;
    return std::min(wait, cap);
}

} // namespace treevqa

#endif // TREEVQA_DIST_BACKOFF_H
