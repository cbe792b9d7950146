/**
 * @file
 * Lanczos ground-state solver for Hermitian operators.
 *
 * TreeVQA's evaluation metric is the energy fidelity
 * F_i = 1 - |(E_gs - E_i) / E_gs| (Section 7.2), which requires the exact
 * ground-state energy E_gs of every task Hamiltonian. For the dense
 * benchmarks (4-14 qubits) we obtain it with Lanczos iteration over the
 * statevector space, using the Hamiltonian only through a matvec callback
 * so the 2^n x 2^n matrix is never materialized.
 *
 * Full reorthogonalization is used: the Krylov dimensions involved
 * (<= ~200) make it cheap and it eliminates ghost eigenvalues.
 *
 * Bit contract: results are bitwise equal to the pre-rewrite solver's
 * (refLanczosGroundState in sim/reference_kernels.h) at any pool size,
 * when both are built by GCC for x86-64, with or without FMA. The pass
 * works in real arithmetic on one contiguous Krylov buffer, and every
 * complex product is written out with its contraction (fmadd), the one
 * GCC gave the std::complex code at that site; every sum keeps its
 * index order. Another compiler may contract the std::complex code
 * differently, so there the two need not agree and the bit tests skip.
 * lanczosGroundStates draws every start vector in problem order and
 * falls back to serial solves from the first problem that restarts, so
 * its draws follow the serial order too.
 */

#ifndef TREEVQA_LINALG_LANCZOS_H
#define TREEVQA_LINALG_LANCZOS_H

#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace treevqa {

/** y = H x for a Hermitian operator H on a complex vector space. */
using MatVec = std::function<void(const CVector &x, CVector &y)>;

/** Result of a Lanczos ground-state computation. */
struct LanczosResult
{
    /** Lowest eigenvalue found. */
    double eigenvalue = 0.0;
    /** Corresponding normalized eigenvector. */
    CVector eigenvector;
    /** Krylov dimension actually used. */
    int krylovDim = 0;
    /** True if the residual ||Hx - lambda x|| fell below tolerance. */
    bool converged = false;
    /** Final residual norm. */
    double residual = 0.0;
};

/**
 * Compute the lowest eigenpair of a Hermitian operator.
 *
 * @param dim dimension of the vector space (2^n for n qubits).
 * @param matvec operator application.
 * @param rng source for the random start vector.
 * @param max_krylov Krylov space cap.
 * @param tol convergence tolerance on the residual norm.
 * @param restarts implicit restarts (restart from current Ritz vector).
 */
LanczosResult lanczosGroundState(std::size_t dim, const MatVec &matvec,
                                 Rng &rng, int max_krylov = 160,
                                 double tol = 1e-9, int restarts = 6);

/** One operator of a batch: its dimension and its matvec. */
struct LanczosProblem
{
    std::size_t dim = 0;
    MatVec matvec;
};

/**
 * lanczosGroundState on every problem, bitwise equal to calling it on
 * each in turn with the one `rng`, which is left where that loop would
 * leave it. The start vectors are drawn in problem order; the first
 * passes then run concurrently on ThreadPool::global(). A first pass
 * that does not converge restarts from where its start vector left the
 * generator, and every problem after it is solved again, serially, so
 * the restart draws follow in order. The matvecs must be safe to call
 * concurrently.
 */
std::vector<LanczosResult> lanczosGroundStates(
    const std::vector<LanczosProblem> &problems, Rng &rng,
    int max_krylov = 160, double tol = 1e-9, int restarts = 6);

} // namespace treevqa

#endif // TREEVQA_LINALG_LANCZOS_H
