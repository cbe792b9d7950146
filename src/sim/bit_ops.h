/**
 * @file
 * Shared primitives for the statevector kernels and the expectation
 * evaluators: bit manipulation and the one rule for when a state pass
 * goes parallel.
 */

#ifndef TREEVQA_SIM_BIT_OPS_H
#define TREEVQA_SIM_BIT_OPS_H

#include <bit>
#include <cstddef>
#include <cstdint>

namespace treevqa {

/** Minimum amplitude count before a parallel pass pays for itself:
 * below it the gate kernels and ExpectationPlan::evaluate run serially
 * and never wake the thread pool. */
inline constexpr std::size_t kParallelMinDim = std::size_t{1} << 16;

/** Insert a zero bit at the position of `bit` (a power of two):
 * maps a compressed index k onto the full index space where that bit
 * is clear. */
inline std::size_t
expandBit(std::size_t k, std::size_t bit)
{
    return ((k & ~(bit - 1)) << 1) | (k & (bit - 1));
}

/** Insert zero bits at two positions; `blo` must be the lower one. */
inline std::size_t
expandBits2(std::size_t k, std::size_t blo, std::size_t bhi)
{
    return expandBit(expandBit(k, blo), bhi);
}

/** Branchless (-1)^{popcount(b & mask)}. */
inline double
paritySign(std::uint64_t b, std::uint64_t mask)
{
    return 1.0
         - 2.0 * static_cast<double>(std::popcount(b & mask) & 1u);
}

} // namespace treevqa

#endif // TREEVQA_SIM_BIT_OPS_H
