/**
 * @file
 * Tests for PauliSum: term bookkeeping, padding/alignment, the mixed
 * Hamiltonian (Section 5.2.1) and the l1 distance (Section 5.2.4).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "pauli/pauli_sum.h"
#include "sim/reference_kernels.h"

namespace treevqa {
namespace {

TEST(PauliSum, AddMergesEqualStrings)
{
    PauliSum h(2);
    h.add(0.5, "XZ");
    h.add(0.25, "XZ");
    EXPECT_EQ(h.numTerms(), 1u);
    EXPECT_DOUBLE_EQ(h.terms()[0].coefficient, 0.75);
}

TEST(PauliSum, CompressDropsSmallTerms)
{
    PauliSum h(1);
    h.add(1.0, "X");
    h.add(1e-15, "Z");
    h.compress();
    EXPECT_EQ(h.numTerms(), 1u);
    EXPECT_EQ(h.terms()[0].string.toLabel(), "X");
}

TEST(PauliSum, AddScaledMergesAcrossSums)
{
    PauliSum a(2), b(2);
    a.add(1.0, "XI");
    a.add(2.0, "ZZ");
    b.add(3.0, "ZZ");
    b.add(4.0, "IY");
    a.addScaled(b, 0.5);
    EXPECT_DOUBLE_EQ(a.coefficientOf(PauliString::fromLabel("ZZ")), 3.5);
    EXPECT_DOUBLE_EQ(a.coefficientOf(PauliString::fromLabel("IY")), 2.0);
    EXPECT_DOUBLE_EQ(a.coefficientOf(PauliString::fromLabel("XI")), 1.0);
}

TEST(PauliSum, L1NormsAndTrace)
{
    PauliSum h(2);
    h.add(-3.0, "II");
    h.add(2.0, "XZ");
    h.add(-1.5, "ZI");
    EXPECT_DOUBLE_EQ(h.l1Norm(), 3.5);
    EXPECT_DOUBLE_EQ(h.l1NormWithIdentity(), 6.5);
    EXPECT_DOUBLE_EQ(h.normalizedTrace(), -3.0);
    EXPECT_EQ(h.numMeasuredTerms(), 2u);
}

TEST(PauliSum, ApplyToKnownAction)
{
    // H = X on 1 qubit: H|0> = |1>.
    PauliSum h(1);
    h.add(1.0, "X");
    CVector in = {Complex(1, 0), Complex(0, 0)}, out;
    h.applyTo(in, out);
    EXPECT_NEAR(std::abs(out[0]), 0.0, 1e-15);
    EXPECT_NEAR(std::abs(out[1] - Complex(1, 0)), 0.0, 1e-15);

    // H = Y: Y|0> = i|1>.
    PauliSum hy(1);
    hy.add(1.0, "Y");
    hy.applyTo(in, out);
    EXPECT_NEAR(std::abs(out[1] - Complex(0, 1)), 0.0, 1e-15);

    // H = Z: Z|1> = -|1>.
    PauliSum hz(1);
    hz.add(1.0, "Z");
    CVector one = {Complex(0, 0), Complex(1, 0)};
    hz.applyTo(one, out);
    EXPECT_NEAR(std::abs(out[1] + Complex(1, 0)), 0.0, 1e-15);
}

TEST(PauliSum, ExpectationOnBasisStates)
{
    PauliSum h(2);
    h.add(0.7, "ZI");
    h.add(-0.2, "IZ");
    h.add(5.0, "II");
    // |01> (qubit 0 set): <Z0> = -1, <Z1> = +1.
    CVector state(4, Complex(0, 0));
    state[1] = 1.0;
    EXPECT_NEAR(refSumExpectation(h, state), 5.0 - 0.7 - 0.2, 1e-12);
}

TEST(PauliSum, ExpectationOfOffDiagonalOnPlusState)
{
    // <+|X|+> = 1.
    PauliSum h(1);
    h.add(1.0, "X");
    const double r = 1.0 / std::sqrt(2.0);
    CVector plus = {Complex(r, 0), Complex(r, 0)};
    EXPECT_NEAR(refSumExpectation(h, plus), 1.0, 1e-12);
}

TEST(AlignTerms, PadsWithZeros)
{
    PauliSum a(2), b(2);
    a.add(1.0, "XI");
    a.add(2.0, "ZZ");
    b.add(3.0, "ZZ");
    b.add(4.0, "IY");

    const AlignedTerms aligned = alignTerms({a, b});
    EXPECT_EQ(aligned.strings.size(), 3u);
    ASSERT_EQ(aligned.coefficients.size(), 2u);

    // Each row recombines to its own Hamiltonian.
    for (std::size_t k = 0; k < aligned.strings.size(); ++k) {
        EXPECT_DOUBLE_EQ(aligned.coefficients[0][k],
                         a.coefficientOf(aligned.strings[k]));
        EXPECT_DOUBLE_EQ(aligned.coefficients[1][k],
                         b.coefficientOf(aligned.strings[k]));
    }
}

TEST(AlignTerms, DeterministicOrdering)
{
    PauliSum a(3), b(3);
    a.add(1.0, "XII");
    b.add(1.0, "IIZ");
    const AlignedTerms x = alignTerms({a, b});
    const AlignedTerms y = alignTerms({a, b});
    ASSERT_EQ(x.strings.size(), y.strings.size());
    for (std::size_t k = 0; k < x.strings.size(); ++k)
        EXPECT_EQ(x.strings[k], y.strings[k]);
}

TEST(MixedHamiltonian, IsCoefficientAverage)
{
    PauliSum a(2), b(2);
    a.add(2.0, "ZI");
    a.add(1.0, "XX");
    b.add(4.0, "ZI");

    const PauliSum mixed = mixedHamiltonian({a, b});
    EXPECT_DOUBLE_EQ(
        mixed.coefficientOf(PauliString::fromLabel("ZI")), 3.0);
    EXPECT_DOUBLE_EQ(
        mixed.coefficientOf(PauliString::fromLabel("XX")), 0.5);
}

TEST(MixedHamiltonian, SingleInputIsIdentityOp)
{
    PauliSum a(2);
    a.add(1.25, "YZ");
    const PauliSum mixed = mixedHamiltonian({a});
    EXPECT_EQ(mixed.numTerms(), 1u);
    EXPECT_DOUBLE_EQ(
        mixed.coefficientOf(PauliString::fromLabel("YZ")), 1.25);
}

TEST(L1Distance, HandComputed)
{
    PauliSum a(2), b(2);
    a.add(1.0, "XI");
    a.add(2.0, "ZZ");
    b.add(3.0, "ZZ");
    b.add(4.0, "IY");
    // |1-0| + |2-3| + |0-4| = 6.
    EXPECT_DOUBLE_EQ(l1Distance(a, b), 6.0);
}

TEST(L1Distance, MetricProperties)
{
    PauliSum a(2), b(2), c(2);
    a.add(1.0, "XI");
    b.add(2.0, "XI");
    c.add(1.0, "XI");
    c.add(0.5, "ZZ");
    EXPECT_DOUBLE_EQ(l1Distance(a, a), 0.0);
    EXPECT_DOUBLE_EQ(l1Distance(a, b), l1Distance(b, a));
    // Triangle inequality.
    EXPECT_LE(l1Distance(a, c),
              l1Distance(a, b) + l1Distance(b, c) + 1e-12);
}

TEST(L1Distance, BoundsOperatorNormDifference)
{
    // || H_a - H_b ||_op <= l1 distance: check via the largest
    // |eigenvalue| of the difference on a small example.
    PauliSum a(1), b(1);
    a.add(1.0, "X");
    b.add(0.2, "X");
    b.add(0.3, "Z");
    // Difference = 0.8 X - 0.3 Z, operator norm sqrt(0.64 + 0.09).
    const double op_norm = std::sqrt(0.8 * 0.8 + 0.3 * 0.3);
    EXPECT_LE(op_norm, l1Distance(a, b) + 1e-12);
}

TEST(PauliSum, ScaleCoefficients)
{
    PauliSum h(1);
    h.add(2.0, "X");
    h.scaleCoefficients(-0.5);
    EXPECT_DOUBLE_EQ(h.terms()[0].coefficient, -1.0);
}

TEST(PauliSum, ToStringMentionsShape)
{
    PauliSum h(2);
    h.add(1.0, "XZ");
    const std::string s = h.toString();
    EXPECT_NE(s.find("2 qubits"), std::string::npos);
    EXPECT_NE(s.find("XZ"), std::string::npos);
}

} // namespace
} // namespace treevqa
