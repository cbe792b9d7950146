/**
 * @file
 * Tests for general QUBO -> Ising conversion (Section 6 substrate).
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ham/qubo.h"
#include "linalg/lanczos.h"
#include "sim/reference_kernels.h"

namespace treevqa {
namespace {

TEST(Qubo, EvaluateByHand)
{
    // Q = [[1, -2], [-2, 3]]: f(00)=0, f(10)=1, f(01)=3, f(11)=0.
    Qubo q(2);
    q.set(0, 0, 1.0);
    q.set(1, 1, 3.0);
    q.set(0, 1, -2.0);
    EXPECT_DOUBLE_EQ(q.evaluate(0b00), 0.0);
    EXPECT_DOUBLE_EQ(q.evaluate(0b01), 1.0);
    EXPECT_DOUBLE_EQ(q.evaluate(0b10), 3.0);
    EXPECT_DOUBLE_EQ(q.evaluate(0b11), 0.0);
    EXPECT_DOUBLE_EQ(q.minimumBruteForce(), 0.0);
}

TEST(Qubo, HamiltonianSpectrumMatchesObjective)
{
    // Every computational basis state's energy equals the QUBO value
    // of the corresponding assignment.
    Qubo q(3);
    q.set(0, 0, 1.0);
    q.set(1, 1, -2.0);
    q.set(2, 2, 0.5);
    q.set(0, 1, 1.5);
    q.set(1, 2, -0.75);
    const PauliSum h = q.toHamiltonian();

    for (std::uint64_t a = 0; a < 8; ++a) {
        CVector state(8, Complex(0, 0));
        state[a] = 1.0;
        EXPECT_NEAR(refSumExpectation(h, state), q.evaluate(a), 1e-12)
            << "assignment " << a;
    }
}

TEST(Qubo, GroundEnergyEqualsBruteForceMinimum)
{
    Rng rng(1);
    for (int trial = 0; trial < 5; ++trial) {
        Qubo q(4);
        for (std::size_t i = 0; i < 4; ++i)
            for (std::size_t j = i; j < 4; ++j)
                q.set(i, j, rng.uniform(-2, 2));
        const PauliSum h = q.toHamiltonian();
        const MatVec mv = [&h](const CVector &x, CVector &y) {
            h.applyTo(x, y);
        };
        Rng lrng(trial + 10);
        EXPECT_NEAR(lanczosGroundState(16, mv, lrng).eigenvalue,
                    q.minimumBruteForce(), 1e-8);
    }
}

TEST(Qubo, HamiltonianIsDiagonal)
{
    Qubo q(3);
    q.set(0, 1, 1.0);
    q.set(2, 2, -1.0);
    const PauliSum h = q.toHamiltonian();
    for (const auto &term : h.terms())
        EXPECT_TRUE(term.string.isDiagonal());
}

TEST(Qubo, ClausesListOffDiagonalCouplings)
{
    Qubo q(3);
    q.set(0, 1, 1.5);
    q.set(1, 2, -0.5);
    q.set(0, 0, 9.0); // diagonal: not a clause
    const auto clauses = q.clauses();
    ASSERT_EQ(clauses.size(), 2u);
    EXPECT_EQ(clauses[0].u, 0);
    EXPECT_EQ(clauses[0].v, 1);
    EXPECT_DOUBLE_EQ(clauses[0].weight, 1.5);
}

TEST(Qubo, SymmetricWrites)
{
    Qubo q(2);
    q.set(0, 1, 2.5);
    EXPECT_DOUBLE_EQ(q.get(1, 0), 2.5);
}

} // namespace
} // namespace treevqa
