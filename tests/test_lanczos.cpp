/**
 * @file
 * Tests for the Lanczos ground-state solver against exactly-known
 * spectra.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "chem/molecule.h"
#include "core/vqa_task.h"
#include "ham/spin_chains.h"
#include "linalg/jacobi.h"
#include "linalg/lanczos.h"
#include "pauli/pauli_sum.h"
#include "pool_size_guard.h"
#include "reference_bits.h"
#include "sim/reference_kernels.h"

namespace treevqa {
namespace {

TEST(Lanczos, DiagonalOperator)
{
    // H = diag(3, -1, 4, 2): ground value -1, eigenvector e_1.
    const std::vector<double> diag = {3.0, -1.0, 4.0, 2.0};
    const MatVec matvec = [&](const CVector &x, CVector &y) {
        y.resize(x.size());
        for (std::size_t i = 0; i < x.size(); ++i)
            y[i] = diag[i] * x[i];
    };
    Rng rng(1);
    const LanczosResult res = lanczosGroundState(4, matvec, rng);
    EXPECT_TRUE(res.converged);
    EXPECT_NEAR(res.eigenvalue, -1.0, 1e-9);
    EXPECT_NEAR(std::norm(res.eigenvector[1]), 1.0, 1e-8);
}

TEST(Lanczos, SingleQubitPauliX)
{
    PauliSum h(1);
    h.add(1.0, "X");
    const MatVec matvec = [&](const CVector &x, CVector &y) {
        h.applyTo(x, y);
    };
    Rng rng(2);
    const LanczosResult res = lanczosGroundState(2, matvec, rng);
    EXPECT_NEAR(res.eigenvalue, -1.0, 1e-10);
}

TEST(Lanczos, MatchesDenseDiagonalizationTfim)
{
    // 3-site TFIM is real symmetric in the computational basis: build
    // the dense matrix column by column and cross-check with Jacobi.
    const PauliSum h = transverseFieldIsing(3, 1.0, 0.7);
    const std::size_t dim = 8;

    Matrix dense(dim, dim, 0.0);
    for (std::size_t col = 0; col < dim; ++col) {
        CVector e(dim, Complex(0, 0)), out;
        e[col] = 1.0;
        h.applyTo(e, out);
        for (std::size_t row = 0; row < dim; ++row) {
            EXPECT_NEAR(out[row].imag(), 0.0, 1e-12);
            dense(row, col) = out[row].real();
        }
    }
    const EigenDecomposition ed = jacobiEigen(dense);

    const MatVec matvec = [&](const CVector &x, CVector &y) {
        h.applyTo(x, y);
    };
    Rng rng(3);
    const LanczosResult res = lanczosGroundState(dim, matvec, rng);
    EXPECT_TRUE(res.converged);
    EXPECT_NEAR(res.eigenvalue, ed.values[0], 1e-9);
}

TEST(Lanczos, EigenvectorSatisfiesEquation)
{
    const PauliSum h = xxzChain(4, 1.0, 0.5);
    const std::size_t dim = 16;
    const MatVec matvec = [&](const CVector &x, CVector &y) {
        h.applyTo(x, y);
    };
    Rng rng(4);
    const LanczosResult res = lanczosGroundState(dim, matvec, rng);
    ASSERT_TRUE(res.converged);

    CVector hv;
    h.applyTo(res.eigenvector, hv);
    for (std::size_t i = 0; i < dim; ++i) {
        EXPECT_NEAR(hv[i].real(), res.eigenvalue
                    * res.eigenvector[i].real(), 1e-7);
        EXPECT_NEAR(hv[i].imag(), res.eigenvalue
                    * res.eigenvector[i].imag(), 1e-7);
    }
}

TEST(Lanczos, ResidualReported)
{
    const PauliSum h = transverseFieldIsing(4, 1.0, 1.0);
    const MatVec matvec = [&](const CVector &x, CVector &y) {
        h.applyTo(x, y);
    };
    Rng rng(5);
    const LanczosResult res = lanczosGroundState(16, matvec, rng);
    EXPECT_TRUE(res.converged);
    EXPECT_LT(res.residual, 1e-9);
    EXPECT_GT(res.krylovDim, 1);
}

/** Known closed form: single-spin field H = -h X has E0 = -h. */
class LanczosFieldSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(LanczosFieldSweep, TwoSiteTfimClosedForm)
{
    // Open 2-site TFIM: H = -Z0 Z1 - h (X0 + X1).
    // Closed form ground energy: -sqrt(1 + 4 h^2 + ...) — avoid
    // rederiving; instead verify against dense diagonalization.
    const double h_field = GetParam();
    const PauliSum h = transverseFieldIsing(2, 1.0, h_field);
    Matrix dense(4, 4, 0.0);
    for (std::size_t col = 0; col < 4; ++col) {
        CVector e(4, Complex(0, 0)), out;
        e[col] = 1.0;
        h.applyTo(e, out);
        for (std::size_t row = 0; row < 4; ++row)
            dense(row, col) = out[row].real();
    }
    const double exact = jacobiEigen(dense).values[0];

    const MatVec matvec = [&](const CVector &x, CVector &y) {
        h.applyTo(x, y);
    };
    Rng rng(6);
    EXPECT_NEAR(lanczosGroundState(4, matvec, rng).eigenvalue, exact,
                1e-9);
}

INSTANTIATE_TEST_SUITE_P(Fields, LanczosFieldSweep,
                         ::testing::Values(0.0, 0.3, 0.7, 1.0, 1.5,
                                           3.0));

MatVec
matvecOf(const PauliSum &h)
{
    return [&h](const CVector &x, CVector &y) { h.applyTo(x, y); };
}

/** Every bit of both results agrees. */
void
expectSameBits(const LanczosResult &got, const LanczosResult &ref)
{
    EXPECT_EQ(0, std::memcmp(&got.eigenvalue, &ref.eigenvalue,
                             sizeof(double)));
    ASSERT_EQ(got.eigenvector.size(), ref.eigenvector.size());
    EXPECT_EQ(0, std::memcmp(got.eigenvector.data(), ref.eigenvector.data(),
                             sizeof(Complex) * ref.eigenvector.size()));
    EXPECT_EQ(got.krylovDim, ref.krylovDim);
    EXPECT_EQ(got.converged, ref.converged);
    EXPECT_EQ(0, std::memcmp(&got.residual, &ref.residual, sizeof(double)));
}

/** Both generators are at the same point of their streams. */
void
expectSameState(const Rng &got, const Rng &ref)
{
    const RngState a = got.state();
    const RngState b = ref.state();
    EXPECT_EQ(a.s, b.s);
    EXPECT_EQ(a.hasCachedNormal, b.hasCachedNormal);
    EXPECT_EQ(0, std::memcmp(&a.cachedNormal, &b.cachedNormal,
                             sizeof(double)));
}

/** lanczosGroundState(h) against refLanczosGroundState(h) from the same
 * seed: same bits, same draws. */
LanczosResult
expectMatchesReference(const PauliSum &h, std::uint64_t seed,
                       int max_krylov = 160)
{
    const std::size_t dim = std::size_t{1} << h.numQubits();
    Rng rng(seed), ref_rng(seed);
    const LanczosResult got =
        lanczosGroundState(dim, matvecOf(h), rng, max_krylov);
    expectSameBits(got, refLanczosGroundState(dim, matvecOf(h), ref_rng,
                                              max_krylov));
    expectSameState(rng, ref_rng);
    return got;
}

/** The real-arithmetic pass on one Krylov buffer, with the rewritten
 * Jacobi on its tridiagonal, returns the pre-rewrite solver's bits. */
TEST(Lanczos, MatchesReferenceBitwise)
{
    if (!kReferenceBitsKept)
        GTEST_SKIP() << "the pre-rewrite bits are kept in x86-64 GCC "
                        "builds only";
    for (int n = 2; n <= 12; ++n) {
        SCOPED_TRACE(testing::Message() << n << " qubits");
        expectMatchesReference(transverseFieldIsing(n, 1.0, 0.9), 10 + n);
        expectMatchesReference(xxzChain(n, 1.0, 0.6), 30 + n);
    }
    expectMatchesReference(buildH2(0.7414).hamiltonian, 7);

    // An invariant subspace ends the pass before the cap: 8 dimensions.
    const LanczosResult exhausted =
        expectMatchesReference(transverseFieldIsing(3, 1.0, 0.7), 3);
    EXPECT_LT(exhausted.krylovDim, 160);
    EXPECT_TRUE(exhausted.converged);

    // A 6-vector cap leaves every pass short of convergence, so all six
    // restarts run and draw their perturbations.
    const LanczosResult capped =
        expectMatchesReference(transverseFieldIsing(6, 1.0, 1.0), 5, 6);
    EXPECT_EQ(capped.krylovDim, 6);
    EXPECT_FALSE(capped.converged);
}

/** A batch whose third problem restarts: tasks 0 and 1 keep their
 * concurrent first passes, the rest are solved serially. */
TEST(Lanczos, BatchMatchesSerialReferenceAtAnyPoolSize)
{
    if (!kReferenceBitsKept)
        GTEST_SKIP() << "the pre-rewrite bits are kept in x86-64 GCC "
                        "builds only";
    // With a 6-vector cap the 2-qubit problems exhaust their space and
    // converge; the 6-qubit ones restart.
    std::vector<PauliSum> hs = {
        transverseFieldIsing(2, 1.0, 0.5), xxzChain(2, 1.0, 0.3),
        transverseFieldIsing(6, 1.0, 0.8), transverseFieldIsing(2, 1.0, 1.5),
        xxzChain(6, 1.0, 0.4), transverseFieldIsing(2, 1.0, 0.9)};
    constexpr int kCap = 6;
    std::vector<LanczosProblem> problems;
    for (const PauliSum &h : hs)
        problems.push_back({std::size_t{1} << h.numQubits(), matvecOf(h)});

    Rng ref_rng(77);
    std::vector<LanczosResult> ref;
    for (const LanczosProblem &p : problems)
        ref.push_back(refLanczosGroundState(p.dim, p.matvec, ref_rng, kCap));
    EXPECT_TRUE(ref[1].converged);
    EXPECT_FALSE(ref[2].converged);

    // Without the fallback the batch would leave the generator just past
    // the last start vector.
    Rng starts_only(77);
    for (const LanczosProblem &p : problems)
        for (std::size_t i = 0; i < 2 * p.dim; ++i)
            starts_only.normal();
    EXPECT_NE(starts_only.state().s, ref_rng.state().s);

    for (std::size_t lanes : {1u, 2u, 4u}) {
        SCOPED_TRACE(testing::Message() << lanes << " lanes");
        PoolSizeGuard guard(lanes);
        Rng rng(77);
        const std::vector<LanczosResult> got =
            lanczosGroundStates(problems, rng, kCap);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            expectSameBits(got[i], ref[i]);
        expectSameState(rng, ref_rng);
    }
}

/** solveGroundEnergies gives the pre-rewrite serial loop's energies at
 * pool sizes 1, 2 and 4, skipping tasks that already have one. */
TEST(Lanczos, SolveGroundEnergiesMatchesSerialReference)
{
    if (!kReferenceBitsKept)
        GTEST_SKIP() << "the pre-rewrite bits are kept in x86-64 GCC "
                        "builds only";
    std::vector<VqaTask> tasks =
        makeTasks("TFIM", tfimFamily(6, 0.5, 1.5, 4), 0);
    for (VqaTask &task : makeTasks("XXZ", xxzFamily(8, 0.2, 1.2, 3), 0))
        tasks.push_back(std::move(task));
    tasks.push_back(makeTasks("H2", {buildH2(0.9).hamiltonian}, 0)[0]);
    tasks[2].groundEnergy = -1.0; // supplied: neither solved nor drawn for

    std::vector<double> ref;
    Rng ref_rng(0x9d5f); // solveGroundEnergies' default seed
    for (const VqaTask &task : tasks)
        ref.push_back(task.hasGroundEnergy()
            ? task.groundEnergy
            : refLanczosGroundState(std::size_t{1}
                                        << task.hamiltonian.numQubits(),
                                    matvecOf(task.hamiltonian), ref_rng)
                  .eigenvalue);

    for (std::size_t lanes : {1u, 2u, 4u}) {
        SCOPED_TRACE(testing::Message() << lanes << " lanes");
        PoolSizeGuard guard(lanes);
        std::vector<VqaTask> solved = tasks;
        solveGroundEnergies(solved);
        for (std::size_t i = 0; i < tasks.size(); ++i)
            EXPECT_EQ(0, std::memcmp(&solved[i].groundEnergy, &ref[i],
                                     sizeof(double)))
                << solved[i].name;
    }

    // One unsolved task: an inline batch of one, same bits.
    std::vector<VqaTask> one(tasks.begin(), tasks.begin() + 1);
    solveGroundEnergies(one);
    EXPECT_EQ(0, std::memcmp(&one[0].groundEnergy, &ref[0], sizeof(double)));
}

} // namespace
} // namespace treevqa
