/**
 * @file
 * Cyclic Jacobi eigensolver for dense real symmetric matrices.
 *
 * Used for the small classical eigenproblems in TreeVQA: the normalized
 * graph Laplacian of the task-similarity matrix (spectral clustering,
 * Section 5.2.5), the Fock/overlap matrices in the Hartree-Fock
 * substrate, and the Krylov tridiagonal of every Lanczos solve (order
 * up to 160), which sets the cost of the exact ground energies.
 *
 * Bit contract: the results are bitwise equal to the pre-rewrite
 * solver's (refJacobiEigen in sim/reference_kernels.h) when both are
 * built by GCC for x86-64, with or without FMA. The rotations are the
 * same and run in the same order, every entry goes through the same
 * operations in the same order, and each rotation's arithmetic is
 * written out with its contraction (fmadd), the one GCC gave the
 * original loops. Another compiler may contract the original loops
 * differently (Clang contracts only within an expression), so there
 * the two need not agree and the bit tests skip. What differs is the
 * memory layout (the eigenvectors accumulate transposed, the working
 * matrix's row stride is padded) and when a row takes its column
 * updates: those of up to eight rotations wait in a batch that each row
 * takes in one visit.
 */

#ifndef TREEVQA_LINALG_JACOBI_H
#define TREEVQA_LINALG_JACOBI_H

#include <vector>

#include "linalg/matrix.h"

namespace treevqa {

/** Result of a symmetric eigendecomposition A = V diag(w) V^T. */
struct EigenDecomposition
{
    /** Eigenvalues in ascending order. */
    std::vector<double> values;
    /** Column j of `vectors` is the eigenvector for values[j]. */
    Matrix vectors;
    /** Number of Jacobi sweeps performed. */
    int sweeps = 0;
    /** True if the off-diagonal norm converged below tolerance. */
    bool converged = false;
};

/**
 * Full eigendecomposition of a symmetric matrix via cyclic Jacobi.
 *
 * @param a symmetric input matrix (symmetry is asserted in debug builds).
 * @param tol convergence threshold on the off-diagonal Frobenius norm.
 * @param max_sweeps hard cap on full sweeps.
 */
EigenDecomposition jacobiEigen(const Matrix &a, double tol = 1e-12,
                               int max_sweeps = 100);

/**
 * Solve the symmetric generalized eigenproblem A x = lambda B x with B
 * symmetric positive definite, via B^{-1/2} canonical orthogonalization.
 * Needed by the Hartree-Fock Roothaan equations F C = S C e.
 */
EigenDecomposition generalizedEigen(const Matrix &a, const Matrix &b,
                                    double tol = 1e-12);

} // namespace treevqa

#endif // TREEVQA_LINALG_JACOBI_H
