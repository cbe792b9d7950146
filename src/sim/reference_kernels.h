/**
 * @file
 * Naive reference kernels for correctness and regression benchmarking.
 *
 * Two families live here:
 *
 *  - Dense-matrix references (refApplyGate2, refExpectation): textbook
 *    formulations with no index tricks, used by the kernel-equivalence
 *    tests as an independent oracle for the optimized Statevector and
 *    expectation kernels.
 *
 *  - Pre-optimization kernels (refApplyRxx, refApplyRyy,
 *    refPerStringExpectations, ...): the implementations the simulator
 *    shipped with before the native-kernel rewrite (full-statevector
 *    passes with a branch per element; Rxx as 5 passes via H
 *    conjugation, Ryy as 9). bench_micro_kernels times the optimized
 *    kernels against these so the speedup trajectory stays measurable.
 *
 *  - Pre-rewrite solvers (refJacobiEigen, refLanczosGroundState): the
 *    dense Jacobi with its column-strided eigenvector updates and the
 *    Lanczos pass on std::complex vectors. The rewritten solvers must
 *    return the same bits; the tests compare the two by memcmp and
 *    bench_micro_kernels times one against the other.
 */

#ifndef TREEVQA_SIM_REFERENCE_KERNELS_H
#define TREEVQA_SIM_REFERENCE_KERNELS_H

#include <array>
#include <vector>

#include "linalg/jacobi.h"
#include "linalg/lanczos.h"
#include "pauli/pauli_string.h"
#include "pauli/pauli_sum.h"
#include "sim/statevector.h"

namespace treevqa {

/** A 4x4 complex matrix in row-major order (two-qubit gate). The basis
 * index of (q0, q1) is j = bit(q0) + 2 * bit(q1). */
using Gate2q = std::array<Complex, 16>;

/** Dense two-qubit matrices. */
Gate2q rxxMatrix(double theta);
Gate2q ryyMatrix(double theta);
Gate2q rzzMatrix(double theta);
/** Cx with q0 = control, q1 = target under the basis convention above. */
Gate2q cxMatrix();
Gate2q czMatrix();

/** Apply an arbitrary two-qubit gate by dense 4x4 multiplication. */
void refApplyGate2(Statevector &state, int q0, int q1,
                   const Gate2q &gate);

/** <psi|P|psi> by the direct full-scan formula (no pairing trick). */
double refExpectation(const Statevector &state, const PauliString &string);

/** <x|H|x> for a normalized dense vector: one full scan per term. */
double refSumExpectation(const PauliSum &sum, const CVector &x);

/** Pre-optimization gate kernels: full 2^n scan, branch per element. */
void refApplyGate1(Statevector &state, int q, const Gate1q &gate);
void refApplyX(Statevector &state, int q);
void refApplyZ(Statevector &state, int q);
void refApplyS(Statevector &state, int q);
void refApplySdg(Statevector &state, int q);
void refApplyH(Statevector &state, int q);
void refApplyCx(Statevector &state, int control, int target);
void refApplyRzz(Statevector &state, int a, int b, double theta);
/** 5 full passes: H, H, Rzz, H, H. */
void refApplyRxx(Statevector &state, int a, int b, double theta);
/** 9 full passes via the (S H x S H) ZZ (H Sdg x H Sdg) conjugation. */
void refApplyRyy(Statevector &state, int a, int b, double theta);

/** Pre-optimization batched expectations: X-mask grouping only, member
 * loop with per-element branch, no blocking or pairing. */
std::vector<double> refPerStringExpectations(
    const Statevector &state, const std::vector<PauliString> &strings);

/** jacobiEigen before the rewrite: same arguments, same results. */
EigenDecomposition refJacobiEigen(const Matrix &a, double tol = 1e-12,
                                  int max_sweeps = 100);

/** lanczosGroundState before the rewrite, with refJacobiEigen on the
 * Krylov tridiagonal: same arguments, same draws, same results. */
LanczosResult refLanczosGroundState(std::size_t dim, const MatVec &matvec,
                                    Rng &rng, int max_krylov = 160,
                                    double tol = 1e-9, int restarts = 6);

} // namespace treevqa

#endif // TREEVQA_SIM_REFERENCE_KERNELS_H
