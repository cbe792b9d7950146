/**
 * @file
 * Tests for the Jacobi symmetric eigensolver and the generalized
 * eigenproblem used by Hartree-Fock.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "linalg/jacobi.h"
#include "reference_bits.h"
#include "sim/reference_kernels.h"

namespace treevqa {
namespace {

TEST(Jacobi, TwoByTwoKnown)
{
    // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
    Matrix a(2, 2);
    a(0, 0) = 2; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 2;
    const EigenDecomposition ed = jacobiEigen(a);
    ASSERT_TRUE(ed.converged);
    EXPECT_NEAR(ed.values[0], 1.0, 1e-12);
    EXPECT_NEAR(ed.values[1], 3.0, 1e-12);
}

TEST(Jacobi, DiagonalMatrixSorted)
{
    Matrix a(3, 3);
    a(0, 0) = 5; a(1, 1) = -2; a(2, 2) = 1;
    const EigenDecomposition ed = jacobiEigen(a);
    EXPECT_NEAR(ed.values[0], -2.0, 1e-12);
    EXPECT_NEAR(ed.values[1], 1.0, 1e-12);
    EXPECT_NEAR(ed.values[2], 5.0, 1e-12);
}

TEST(Jacobi, ReconstructsRandomSymmetric)
{
    Rng rng(4);
    const std::size_t n = 8;
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i; j < n; ++j)
            a(i, j) = a(j, i) = rng.normal();

    const EigenDecomposition ed = jacobiEigen(a);
    ASSERT_TRUE(ed.converged);

    // A =? V diag(w) V^T.
    Matrix d(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        d(i, i) = ed.values[i];
    const Matrix rebuilt =
        ed.vectors.multiply(d).multiply(ed.vectors.transposed());
    EXPECT_LT(a.maxAbsDiff(rebuilt), 1e-9);
}

TEST(Jacobi, EigenvectorsOrthonormal)
{
    Rng rng(5);
    const std::size_t n = 6;
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i; j < n; ++j)
            a(i, j) = a(j, i) = rng.uniform(-1.0, 1.0);

    const EigenDecomposition ed = jacobiEigen(a);
    const Matrix gram = ed.vectors.transposed().multiply(ed.vectors);
    EXPECT_LT(gram.maxAbsDiff(Matrix::identity(n)), 1e-9);
}

TEST(Jacobi, EigenvalueEquationHolds)
{
    Rng rng(6);
    const std::size_t n = 5;
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i; j < n; ++j)
            a(i, j) = a(j, i) = rng.normal();
    const EigenDecomposition ed = jacobiEigen(a);
    for (std::size_t k = 0; k < n; ++k) {
        std::vector<double> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = ed.vectors(i, k);
        const auto av = a.apply(v);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(av[i], ed.values[k] * v[i], 1e-9);
    }
}

TEST(GeneralizedEigen, ReducesToStandardWhenBIsIdentity)
{
    Rng rng(7);
    const std::size_t n = 4;
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i; j < n; ++j)
            a(i, j) = a(j, i) = rng.normal();
    const EigenDecomposition standard = jacobiEigen(a);
    const EigenDecomposition general =
        generalizedEigen(a, Matrix::identity(n));
    for (std::size_t k = 0; k < n; ++k)
        EXPECT_NEAR(general.values[k], standard.values[k], 1e-9);
}

TEST(GeneralizedEigen, SatisfiesAxEqualsLambdaBx)
{
    // Overlap-like B: SPD with off-diagonal structure.
    Matrix a(2, 2), b(2, 2);
    a(0, 0) = -1.0; a(0, 1) = -0.5; a(1, 0) = -0.5; a(1, 1) = -1.5;
    b(0, 0) = 1.0;  b(0, 1) = 0.4;  b(1, 0) = 0.4;  b(1, 1) = 1.0;

    const EigenDecomposition ed = generalizedEigen(a, b);
    for (std::size_t k = 0; k < 2; ++k) {
        std::vector<double> x(2);
        for (std::size_t i = 0; i < 2; ++i)
            x[i] = ed.vectors(i, k);
        const auto ax = a.apply(x);
        const auto bx = b.apply(x);
        for (std::size_t i = 0; i < 2; ++i)
            EXPECT_NEAR(ax[i], ed.values[k] * bx[i], 1e-9);
    }
}

/** Size sweep: convergence and reconstruction across matrix orders. */
class JacobiSizeSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(JacobiSizeSweep, ConvergesAndReconstructs)
{
    const std::size_t n = GetParam();
    Rng rng(100 + n);
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i; j < n; ++j)
            a(i, j) = a(j, i) = rng.uniform(-2.0, 2.0);
    const EigenDecomposition ed = jacobiEigen(a);
    ASSERT_TRUE(ed.converged);
    // Trace preserved: sum of eigenvalues equals matrix trace.
    double trace = 0.0, eigsum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        trace += a(i, i);
        eigsum += ed.values[i];
    }
    EXPECT_NEAR(trace, eigsum, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, JacobiSizeSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 10u, 16u,
                                           24u));

/** Every bit of both decompositions agrees. */
void
expectSameBits(const EigenDecomposition &got, const EigenDecomposition &ref)
{
    ASSERT_EQ(got.values.size(), ref.values.size());
    ASSERT_EQ(got.vectors.data().size(), ref.vectors.data().size());
    EXPECT_EQ(0, std::memcmp(got.values.data(), ref.values.data(),
                             sizeof(double) * ref.values.size()));
    EXPECT_EQ(0, std::memcmp(got.vectors.data().data(),
                             ref.vectors.data().data(),
                             sizeof(double) * ref.vectors.data().size()));
    EXPECT_EQ(got.sweeps, ref.sweeps);
    EXPECT_EQ(got.converged, ref.converged);
}

/** The matrix shapes the bit test runs at every order. */
enum class Shape { Dense, Tridiagonal, SplitTridiagonal, Diagonal };

Matrix
shapedMatrix(std::size_t n, Shape shape, Rng &rng)
{
    Matrix a(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i; j < n; ++j) {
            const bool keep = shape == Shape::Dense || j == i
                || (j == i + 1 && shape == Shape::Tridiagonal)
                || (j == i + 1 && shape == Shape::SplitTridiagonal
                    && i % 3 != 1);
            const double x = rng.uniform(-1.0, 1.0);
            a(i, j) = a(j, i) = keep ? x : 0.0;
        }
    return a;
}

/** The rewritten solver runs the pre-rewrite rotations in the same
 * order: bitwise equal to refJacobiEigen in this build, converged or
 * cut after one sweep. SplitTridiagonal has exact-zero couplings (the
 * Krylov tridiagonal's invariant-subspace shape), Diagonal needs no
 * rotation at all. */
TEST(Jacobi, MatchesReferenceBitwise)
{
    if (!kReferenceBitsKept)
        GTEST_SKIP() << "the pre-rewrite bits are kept in x86-64 GCC "
                        "builds only";
    Rng rng(2024);
    for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u,
                          12u, 32u, 64u, 100u, 160u}) {
        for (Shape shape : {Shape::Dense, Shape::Tridiagonal,
                            Shape::SplitTridiagonal, Shape::Diagonal}) {
            SCOPED_TRACE(testing::Message() << "n=" << n << " shape="
                                            << static_cast<int>(shape));
            const Matrix a = shapedMatrix(n, shape, rng);
            expectSameBits(jacobiEigen(a), refJacobiEigen(a));
            expectSameBits(jacobiEigen(a, 1e-12, 1),
                           refJacobiEigen(a, 1e-12, 1));
        }
    }
}

} // namespace
} // namespace treevqa
