/**
 * @file
 * Test helper: whether this build is one the rewritten ground-energy
 * solvers keep the pre-rewrite bits in.
 *
 * jacobiEigen and the Lanczos pass spell out, with fmadd, the
 * contractions GCC gave the original loops and std::complex code
 * (refJacobiEigen, refLanczosGroundState). They were checked against
 * them in x86-64 GCC builds, with FMA (-march=native, -march=haswell)
 * and without (the portable default, ASan + UBSan). Another compiler
 * may contract the original code differently, so the tests that
 * compare the two by memcmp skip there, as the pinned digests do
 * (parent_digests.h).
 */

#ifndef TREEVQA_TESTS_REFERENCE_BITS_H
#define TREEVQA_TESTS_REFERENCE_BITS_H

namespace treevqa {

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
inline constexpr bool kReferenceBitsKept = true;
#else
inline constexpr bool kReferenceBitsKept = false;
#endif

} // namespace treevqa

#endif // TREEVQA_TESTS_REFERENCE_BITS_H
