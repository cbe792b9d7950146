/**
 * @file
 * Tests for the dense statevector simulator.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/rng.h"
#include "sim/reference_kernels.h"
#include "sim/statevector.h"

#include "pool_size_guard.h"

namespace treevqa {
namespace {

TEST(Statevector, StartsInZeroState)
{
    Statevector s(3);
    EXPECT_EQ(s.dim(), 8u);
    EXPECT_NEAR(s.probability(0), 1.0, 1e-15);
    EXPECT_NEAR(s.normSquared(), 1.0, 1e-15);
}

TEST(Statevector, SetBasisState)
{
    Statevector s(3);
    s.setBasisState(0b101);
    EXPECT_NEAR(s.probability(0b101), 1.0, 1e-15);
    EXPECT_NEAR(s.probability(0), 0.0, 1e-15);
}

TEST(Statevector, XFlipsBit)
{
    Statevector s(2);
    s.applyX(1);
    EXPECT_NEAR(s.probability(0b10), 1.0, 1e-15);
}

TEST(Statevector, HCreatesSuperpositionAndIsInvolution)
{
    Statevector s(1);
    s.applyH(0);
    EXPECT_NEAR(s.probability(0), 0.5, 1e-12);
    EXPECT_NEAR(s.probability(1), 0.5, 1e-12);
    s.applyH(0);
    EXPECT_NEAR(s.probability(0), 1.0, 1e-12);
}

TEST(Statevector, CxTruthTable)
{
    for (std::uint64_t in = 0; in < 4; ++in) {
        Statevector s(2);
        s.setBasisState(in);
        s.applyCx(0, 1); // control qubit 0, target qubit 1
        const std::uint64_t expected =
            (in & 1ull) ? (in ^ 2ull) : in;
        EXPECT_NEAR(s.probability(expected), 1.0, 1e-15)
            << "input " << in;
    }
}

TEST(Statevector, CzPhasesOnlyOnes)
{
    Statevector s(2);
    s.applyH(0);
    s.applyH(1);
    s.applyCz(0, 1);
    // Amplitudes: (1,1,1,-1)/2.
    const CVector &a = s.amplitudes();
    EXPECT_NEAR(a[3].real(), -0.5, 1e-12);
    EXPECT_NEAR(a[0].real(), 0.5, 1e-12);
}

TEST(Statevector, RxOnZeroGivesExpectedAmplitudes)
{
    const double theta = 0.7;
    Statevector s(1);
    s.applyRx(0, theta);
    const CVector &a = s.amplitudes();
    EXPECT_NEAR(a[0].real(), std::cos(theta / 2), 1e-12);
    EXPECT_NEAR(a[1].imag(), -std::sin(theta / 2), 1e-12);
}

TEST(Statevector, RyOnZeroIsRealRotation)
{
    const double theta = 1.1;
    Statevector s(1);
    s.applyRy(0, theta);
    const CVector &a = s.amplitudes();
    EXPECT_NEAR(a[0].real(), std::cos(theta / 2), 1e-12);
    EXPECT_NEAR(a[1].real(), std::sin(theta / 2), 1e-12);
    EXPECT_NEAR(a[1].imag(), 0.0, 1e-12);
}

TEST(Statevector, RzIsDiagonalPhase)
{
    const double theta = 0.9;
    Statevector s(1);
    s.applyH(0);
    s.applyRz(0, theta);
    const CVector &a = s.amplitudes();
    const double r = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(std::abs(a[0] - r * std::polar(1.0, -theta / 2)), 0.0,
                1e-12);
    EXPECT_NEAR(std::abs(a[1] - r * std::polar(1.0, theta / 2)), 0.0,
                1e-12);
}

TEST(Statevector, SAndSdgInverse)
{
    Statevector s(1);
    s.applyH(0);
    s.applyS(0);
    s.applySdg(0);
    s.applyH(0);
    EXPECT_NEAR(s.probability(0), 1.0, 1e-12);
}

TEST(Statevector, RzzEqualsRzUpToBasis)
{
    // RZZ(theta) on |00> applies phase exp(-i theta/2).
    Statevector s(2);
    s.applyRzz(0, 1, 0.8);
    EXPECT_NEAR(std::abs(s.amplitudes()[0]
                         - std::polar(1.0, -0.4)), 0.0, 1e-12);
    // On |01> the parity flips the phase sign.
    Statevector t(2);
    t.setBasisState(1);
    t.applyRzz(0, 1, 0.8);
    EXPECT_NEAR(std::abs(t.amplitudes()[1] - std::polar(1.0, 0.4)),
                0.0, 1e-12);
}

TEST(Statevector, RxxMatchesKnownAction)
{
    // exp(-i theta/2 XX)|00> = cos(theta/2)|00> - i sin(theta/2)|11>.
    const double theta = 0.6;
    Statevector s(2);
    s.applyRxx(0, 1, theta);
    const CVector &a = s.amplitudes();
    EXPECT_NEAR(std::abs(a[0] - Complex(std::cos(theta / 2), 0)), 0.0,
                1e-12);
    EXPECT_NEAR(std::abs(a[3] - Complex(0, -std::sin(theta / 2))), 0.0,
                1e-12);
}

TEST(Statevector, RyyMatchesKnownAction)
{
    // exp(-i theta/2 YY)|00> = cos(theta/2)|00> + i sin(theta/2)|11>.
    const double theta = 0.6;
    Statevector s(2);
    s.applyRyy(0, 1, theta);
    const CVector &a = s.amplitudes();
    EXPECT_NEAR(std::abs(a[0] - Complex(std::cos(theta / 2), 0)), 0.0,
                1e-12);
    EXPECT_NEAR(std::abs(a[3] - Complex(0, std::sin(theta / 2))), 0.0,
                1e-12);
}

TEST(Statevector, OverlapSquaredBasics)
{
    Statevector a(2), b(2);
    EXPECT_NEAR(a.overlapSquared(b), 1.0, 1e-12);
    b.applyX(0);
    EXPECT_NEAR(a.overlapSquared(b), 0.0, 1e-12);
}

TEST(Statevector, SampleRespectsDistribution)
{
    Statevector s(1);
    s.applyRy(0, 2.0 * std::acos(std::sqrt(0.25))); // P(0) = 0.25
    Rng rng(9);
    int zeros = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        zeros += s.sample(rng) == 0;
    EXPECT_NEAR(static_cast<double>(zeros) / n, 0.25, 0.01);
}

/** Property: random circuits preserve the norm. */
class NormPreservation : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(NormPreservation, RandomCircuitKeepsUnitNorm)
{
    Rng rng(GetParam());
    const int n = 4;
    Statevector s(n);
    s.setBasisState(rng.uniformInt(16));
    for (int g = 0; g < 60; ++g) {
        const int q = static_cast<int>(rng.uniformInt(n));
        const int p = static_cast<int>((q + 1 + rng.uniformInt(n - 1)) % n);
        switch (rng.uniformInt(8)) {
          case 0: s.applyRx(q, rng.uniform(-3, 3)); break;
          case 1: s.applyRy(q, rng.uniform(-3, 3)); break;
          case 2: s.applyRz(q, rng.uniform(-3, 3)); break;
          case 3: s.applyH(q); break;
          case 4: s.applyCx(q, p); break;
          case 5: s.applyCz(q, p); break;
          case 6: s.applyRzz(q, p, rng.uniform(-3, 3)); break;
          default: s.applyS(q); break;
        }
        EXPECT_NEAR(s.normSquared(), 1.0, 1e-10);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormPreservation,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull,
                                           5ull));

/** A pseudo-random normalized n-qubit state from a random circuit. */
Statevector
randomState(int n, std::uint64_t seed)
{
    Rng rng(seed);
    Statevector s(n);
    s.setBasisState(rng.uniformInt(std::uint64_t{1} << n));
    for (int g = 0; g < 12 * n; ++g) {
        const int q = static_cast<int>(rng.uniformInt(n));
        const int p =
            static_cast<int>((q + 1 + rng.uniformInt(n - 1)) % n);
        switch (rng.uniformInt(6)) {
          case 0: s.applyRx(q, rng.uniform(-3, 3)); break;
          case 1: s.applyRy(q, rng.uniform(-3, 3)); break;
          case 2: s.applyRz(q, rng.uniform(-3, 3)); break;
          case 3: s.applyH(q); break;
          case 4: s.applyCx(q, p); break;
          default: s.applyS(q); break;
        }
    }
    return s;
}

void
expectStatesEqual(const Statevector &a, const Statevector &b,
                  const std::string &label)
{
    ASSERT_EQ(a.dim(), b.dim());
    for (std::size_t i = 0; i < a.dim(); ++i)
        EXPECT_NEAR(std::abs(a.amplitudes()[i] - b.amplitudes()[i]),
                    0.0, 1e-12)
            << label << " amplitude " << i;
}

double
maxAbsDiff(const Statevector &a, const Statevector &b)
{
    double max_err = 0.0;
    for (std::size_t i = 0; i < a.dim(); ++i)
        max_err = std::max(
            max_err, std::abs(a.amplitudes()[i] - b.amplitudes()[i]));
    return max_err;
}

/**
 * Property: every optimized two-qubit kernel agrees with the naive
 * dense 4x4 matrix reference on random states, for qubit pairs in both
 * orders, adjacent and strided.
 */
class TwoQubitKernelEquivalence
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TwoQubitKernelEquivalence, FastKernelsMatchDenseReference)
{
    const int n = 6;
    Rng rng(GetParam() * 131 + 17);
    const Statevector base = randomState(n, GetParam() * 977 + 3);

    const std::pair<int, int> pairs[] = {
        {0, 1}, {1, 0}, {0, 5}, {5, 0}, {2, 4}, {3, 2}};
    for (const auto &[a, b] : pairs) {
        const double theta = rng.uniform(-3, 3);

        Statevector fast = base, ref = base;
        fast.applyRxx(a, b, theta);
        refApplyGate2(ref, a, b, rxxMatrix(theta));
        expectStatesEqual(fast, ref, "Rxx");

        fast = base;
        ref = base;
        fast.applyRyy(a, b, theta);
        refApplyGate2(ref, a, b, ryyMatrix(theta));
        expectStatesEqual(fast, ref, "Ryy");

        fast = base;
        ref = base;
        fast.applyRzz(a, b, theta);
        refApplyGate2(ref, a, b, rzzMatrix(theta));
        expectStatesEqual(fast, ref, "Rzz");

        fast = base;
        ref = base;
        fast.applyCx(a, b);
        refApplyGate2(ref, a, b, cxMatrix());
        expectStatesEqual(fast, ref, "Cx");

        fast = base;
        ref = base;
        fast.applyCz(a, b);
        refApplyGate2(ref, a, b, czMatrix());
        expectStatesEqual(fast, ref, "Cz");
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoQubitKernelEquivalence,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull,
                                           6ull, 7ull, 8ull));

/** The optimized Rxx/Ryy must also match the pre-optimization
 * basis-change conjugation implementations exactly. */
TEST(Statevector, TwoQubitKernelsMatchConjugationReference)
{
    const int n = 7;
    const Statevector base = randomState(n, 42);
    Rng rng(7);
    for (int trial = 0; trial < 10; ++trial) {
        const int a = static_cast<int>(rng.uniformInt(n));
        const int b =
            static_cast<int>((a + 1 + rng.uniformInt(n - 1)) % n);
        const double theta = rng.uniform(-3, 3);

        Statevector fast = base, ref = base;
        fast.applyRxx(a, b, theta);
        refApplyRxx(ref, a, b, theta);
        expectStatesEqual(fast, ref, "Rxx-conj");

        fast = base;
        ref = base;
        fast.applyRyy(a, b, theta);
        refApplyRyy(ref, a, b, theta);
        expectStatesEqual(fast, ref, "Ryy-conj");
    }
}

/** Single-qubit stride kernels vs. the naive branch-per-element scans. */
TEST(Statevector, StrideKernelsMatchNaiveScans)
{
    const int n = 6;
    const Statevector base = randomState(n, 99);
    for (int q = 0; q < n; ++q) {
        Statevector fast = base, ref = base;
        fast.applyX(q);
        refApplyX(ref, q);
        expectStatesEqual(fast, ref, "X");

        fast = base;
        ref = base;
        fast.applyZ(q);
        refApplyZ(ref, q);
        expectStatesEqual(fast, ref, "Z");

        fast = base;
        ref = base;
        fast.applyS(q);
        refApplyS(ref, q);
        expectStatesEqual(fast, ref, "S");

        fast = base;
        ref = base;
        fast.applySdg(q);
        refApplySdg(ref, q);
        expectStatesEqual(fast, ref, "Sdg");

        fast = base;
        ref = base;
        fast.applyH(q);
        refApplyH(ref, q);
        expectStatesEqual(fast, ref, "H");
    }
}

/** 16-qubit spot check: dim = 2^16 reaches the parallel chunk loop,
 * so its serial and parallel branches must both agree with the naive
 * references. Every target q = 0..15 is swept with a general
 * (non-Hermitian) 1-qubit gate, a diagonal, the swap/phase kernels and
 * two-qubit gates on the neighbour and the far qubit: that covers the
 * grouped low strides (q < 4), the contiguous runs and strides wider
 * than one chunk. */
void
expectSixteenQubitKernelsMatchReferences()
{
    const int n = 16;
    Rng rng(2026);
    Statevector fast(n), ref(n);
    const std::uint64_t init = rng.uniformInt(std::uint64_t{1} << n);
    fast.setBasisState(init);
    ref.setBasisState(init);
    for (int g = 0; g < 24; ++g) {
        const int q = static_cast<int>(rng.uniformInt(n));
        const int p =
            static_cast<int>((q + 1 + rng.uniformInt(n - 1)) % n);
        const double theta = rng.uniform(-3, 3);
        switch (rng.uniformInt(8)) {
          case 0:
            fast.applyRxx(q, p, theta);
            refApplyRxx(ref, q, p, theta);
            break;
          case 1:
            fast.applyRyy(q, p, theta);
            refApplyRyy(ref, q, p, theta);
            break;
          case 2:
            fast.applyRzz(q, p, theta);
            refApplyRzz(ref, q, p, theta);
            break;
          case 3:
            fast.applyCx(q, p);
            refApplyCx(ref, q, p);
            break;
          case 4:
            fast.applyX(q);
            refApplyX(ref, q);
            break;
          case 5:
            fast.applyZ(q);
            refApplyZ(ref, q);
            break;
          case 6:
            fast.applyH(q);
            refApplyH(ref, q);
            break;
          default:
            fast.applyS(q);
            refApplyS(ref, q);
            break;
        }
    }
    EXPECT_LT(maxAbsDiff(fast, ref), 1e-12);
    EXPECT_NEAR(fast.normSquared(), 1.0, 1e-10);

    // Each kernel once per target, from the same dense base state.
    Statevector base = fast;
    for (int q = 0; q < n; ++q) {
        base.applyRy(q, 0.7 + 0.1 * q);
        base.applyRz(q, 0.2 * q - 1.0);
    }
    const Gate1q general{Complex(0.6, 0.1), Complex(-0.3, 0.7),
                         Complex(0.2, -0.5), Complex(0.8, 0.05)};
    const Complex d0 = std::polar(1.0, 0.4);
    const Complex d1 = std::polar(1.0, -1.3);
    const Gate1q diag{d0, Complex(0, 0), Complex(0, 0), d1};
    const auto check = [&](const char *label, int q, const auto &apply,
                           const auto &apply_ref) {
        Statevector f = base, r = base;
        apply(f);
        apply_ref(r);
        EXPECT_LT(maxAbsDiff(f, r), 1e-12) << label << " on q" << q;
    };
    for (int q = 0; q < n; ++q) {
        const int near = (q + 1) % n;
        const int far = n - 1 - q; // n is even: never q itself
        const double theta = 0.3 + 0.1 * q;
        check("Gate1", q, [&](Statevector &s) { s.applyGate1(q, general); },
              [&](Statevector &s) { refApplyGate1(s, q, general); });
        check("Diag1", q, [&](Statevector &s) { s.applyDiag1(q, d0, d1); },
              [&](Statevector &s) { refApplyGate1(s, q, diag); });
        check("X", q, [&](Statevector &s) { s.applyX(q); },
              [&](Statevector &s) { refApplyX(s, q); });
        check("Z", q, [&](Statevector &s) { s.applyZ(q); },
              [&](Statevector &s) { refApplyZ(s, q); });
        check("S", q, [&](Statevector &s) { s.applyS(q); },
              [&](Statevector &s) { refApplyS(s, q); });
        check("Sdg", q, [&](Statevector &s) { s.applySdg(q); },
              [&](Statevector &s) { refApplySdg(s, q); });
        check("Cx near", q, [&](Statevector &s) { s.applyCx(q, near); },
              [&](Statevector &s) { refApplyCx(s, q, near); });
        check("Cx far", q, [&](Statevector &s) { s.applyCx(far, q); },
              [&](Statevector &s) { refApplyCx(s, far, q); });
        check("Cz", q, [&](Statevector &s) { s.applyCz(q, far); },
              [&](Statevector &s) { refApplyGate2(s, q, far, czMatrix()); });
        check("Rzz", q, [&](Statevector &s) { s.applyRzz(q, near, theta); },
              [&](Statevector &s) { refApplyRzz(s, q, near, theta); });
        check("Rxx", q, [&](Statevector &s) { s.applyRxx(far, q, theta); },
              [&](Statevector &s) { refApplyRxx(s, far, q, theta); });
        check("Ryy", q, [&](Statevector &s) { s.applyRyy(q, near, theta); },
              [&](Statevector &s) { refApplyRyy(s, q, near, theta); });
    }
}

TEST(Statevector, SixteenQubitKernelsMatchReferences)
{
    // One lane runs the plain loop; four run the OpenMP team.
    for (const std::size_t lanes : {1u, 4u}) {
        SCOPED_TRACE(testing::Message() << lanes << " pool lanes");
        PoolSizeGuard guard(lanes);
        expectSixteenQubitKernelsMatchReferences();
    }
}

#ifdef _OPENMP
/** Neither thread setting changes a result bit: a 17-qubit state built
 * with a one-lane pool and one OpenMP thread must match, bit for bit,
 * the same state built with four lanes and an OpenMP default of
 * three, in its amplitudes, normSquared() and overlapSquared(). */
TEST(Statevector, ResultsIndependentOfThreadSettings)
{
    const int n = 17;
    struct Result
    {
        CVector amps;
        double norm;
        double overlap;
    };
    const auto layers = [n](Statevector &s, double phase) {
        for (int q = 0; q < n; ++q) {
            s.applyRy(q, phase + 0.11 * q);
            s.applyRx(q, 0.5 - 0.07 * q);
            s.applyRz(q, phase * q);
        }
        for (int q = 0; q + 1 < n; ++q)
            s.applyRzz(q, q + 1, 0.3 + 0.05 * q);
        for (int q = n - 1; q > 0; --q)
            s.applyCx(q, q - 1);
        s.applyCx(0, n - 1);
    };
    const auto build = [&](std::size_t lanes, int omp_threads) {
        PoolSizeGuard guard(lanes);
        omp_set_num_threads(omp_threads);
        Statevector s(n), other(n);
        layers(s, 0.4);
        layers(s, -1.2);
        layers(other, 0.9);
        return Result{s.amplitudes(), s.normSquared(),
                      s.overlapSquared(other)};
    };
    const int saved = omp_get_max_threads();
    const Result serial = build(1, 1);
    const Result parallel = build(4, 3);
    omp_set_num_threads(saved);

    ASSERT_EQ(serial.amps.size(), parallel.amps.size());
    EXPECT_EQ(std::memcmp(serial.amps.data(), parallel.amps.data(),
                          serial.amps.size() * sizeof(Complex)),
              0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.norm),
              std::bit_cast<std::uint64_t>(parallel.norm));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.overlap),
              std::bit_cast<std::uint64_t>(parallel.overlap));
}
#endif

TEST(Statevector, DiagonalKernelMatchesGate1)
{
    const int n = 5;
    const Statevector base = randomState(n, 1234);
    const Complex d0 = std::polar(1.0, 0.3);
    const Complex d1 = std::polar(1.0, -1.1);
    for (int q = 0; q < n; ++q) {
        Statevector fast = base, ref = base;
        fast.applyDiag1(q, d0, d1);
        ref.applyGate1(q, Gate1q{d0, Complex(0, 0), Complex(0, 0), d1});
        expectStatesEqual(fast, ref, "Diag1");
    }
}

/** The amplitudes' parts with -0 folded into +0. */
std::vector<double>
foldedParts(const Statevector &s)
{
    std::vector<double> parts;
    for (const Complex &a : s.amplitudes()) {
        parts.push_back(a.real() + 0.0);
        parts.push_back(a.imag() + 0.0);
    }
    return parts;
}

/** `s` with qubits a and b exchanged (pure moves). */
Statevector
swapQubits(const Statevector &s, int a, int b)
{
    Statevector out(s.numQubits());
    for (std::size_t i = 0; i < s.dim(); ++i) {
        const std::size_t bit_a = (i >> a) & 1, bit_b = (i >> b) & 1;
        const std::size_t j = (i & ~((std::size_t{1} << a)
                                     | (std::size_t{1} << b)))
                            | (bit_a << b) | (bit_b << a);
        out.amplitudes()[j] = s.amplitudes()[i];
    }
    return out;
}

TEST(Statevector, Gate1BitsDoNotDependOnTheTarget)
{
    // Every target's pass (the low-target vector passes included) must
    // give an amplitude the bits of the widest stride's pass: a gate on
    // q equals the same gate on the top qubit with q and the top qubit
    // exchanged around it, up to the sign of exact zeros.
    Rng rng(2024);
    const auto entry = [&rng] {
        return Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    };
    for (const int n : {3, 5, 7, 10}) {
        const Statevector base = randomState(n, 300 + n);
        const Gate1q g{entry(), entry(), entry(), entry()};
        const Complex d0 = entry(), d1 = entry();
        const int top = n - 1;
        for (int q = 0; q < top; ++q) {
            Statevector direct = base;
            direct.applyGate1(q, g);
            Statevector moved = swapQubits(base, q, top);
            moved.applyGate1(top, g);
            EXPECT_EQ(foldedParts(direct),
                      foldedParts(swapQubits(moved, q, top)))
                << "Gate1 n " << n << " q " << q;

            direct = base;
            direct.applyDiag1(q, d0, d1);
            moved = swapQubits(base, q, top);
            moved.applyDiag1(top, d0, d1);
            EXPECT_EQ(foldedParts(direct),
                      foldedParts(swapQubits(moved, q, top)))
                << "Diag1 n " << n << " q " << q;
        }
    }
}

TEST(Statevector, CxOnlyMovesAmplitudes)
{
    // A Cx permutes the amplitudes: each must land, bits intact, on
    // the index with the target flipped where the control is set.
    for (const int n : {2, 3, 4, 6, 9}) {
        const Statevector base = randomState(n, 700 + n);
        for (int c = 0; c < n; ++c)
            for (int t = 0; t < n; ++t) {
                if (c == t)
                    continue;
                Statevector s = base;
                s.applyCx(c, t);
                for (std::size_t i = 0; i < base.dim(); ++i) {
                    const std::size_t j =
                        (i >> c) & 1 ? i ^ (std::size_t{1} << t) : i;
                    EXPECT_EQ(std::memcmp(&s.amplitudes()[j],
                                          &base.amplitudes()[i],
                                          sizeof(Complex)),
                              0)
                        << "n " << n << " cx(" << c << ", " << t
                        << ") amplitude " << i;
                }
            }
    }
}

} // namespace
} // namespace treevqa
