/**
 * @file
 * Tests for exact Pauli expectations on statevectors: the planned
 * grouped evaluator (ExpectationPlan), the one-off wrappers built on
 * it, and their agreement with the naive full-scan references.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ham/spin_chains.h"
#include "sim/bit_ops.h"
#include "sim/expectation.h"
#include "sim/reference_kernels.h"

#include "pool_size_guard.h"

namespace treevqa {
namespace {

/** A pseudo-random but normalized 4-qubit state. */
Statevector
randomState(std::uint64_t seed)
{
    Rng rng(seed);
    Statevector s(4);
    for (int g = 0; g < 40; ++g) {
        const int q = static_cast<int>(rng.uniformInt(4));
        const int p = static_cast<int>((q + 1) % 4);
        switch (rng.uniformInt(5)) {
          case 0: s.applyRx(q, rng.uniform(-3, 3)); break;
          case 1: s.applyRy(q, rng.uniform(-3, 3)); break;
          case 2: s.applyRz(q, rng.uniform(-3, 3)); break;
          case 3: s.applyCx(q, p); break;
          default: s.applyH(q); break;
        }
    }
    return s;
}

TEST(Expectation, DiagonalOnBasisState)
{
    Statevector s(3);
    s.setBasisState(0b110);
    EXPECT_NEAR(expectation(s, PauliString::fromLabel("ZII")), 1.0,
                1e-14);
    EXPECT_NEAR(expectation(s, PauliString::fromLabel("IZI")), -1.0,
                1e-14);
    EXPECT_NEAR(expectation(s, PauliString::fromLabel("IZZ")), 1.0,
                1e-14);
}

TEST(Expectation, XOnPlusState)
{
    Statevector s(1);
    s.applyH(0);
    EXPECT_NEAR(expectation(s, PauliString::fromLabel("X")), 1.0, 1e-14);
    EXPECT_NEAR(expectation(s, PauliString::fromLabel("Z")), 0.0, 1e-14);
}

TEST(Expectation, YOnCircularState)
{
    // |psi> = (|0> + i|1>)/sqrt(2) has <Y> = 1.
    Statevector s(1);
    s.applyH(0);
    s.applyS(0);
    EXPECT_NEAR(expectation(s, PauliString::fromLabel("Y")), 1.0, 1e-14);
}

TEST(Expectation, MatchesPauliSumExpectation)
{
    // Per term against the full-scan reference, and the recombined sum
    // against the PauliSum oracle.
    const PauliSum h = xxzChain(4, 1.0, 0.8);
    const Statevector s = randomState(5);
    std::vector<PauliString> strings;
    for (const auto &term : h.terms())
        strings.push_back(term.string);
    const auto terms = perStringExpectations(s, strings);
    ASSERT_EQ(terms.size(), h.numTerms());
    for (std::size_t k = 0; k < h.numTerms(); ++k)
        EXPECT_NEAR(terms[k], refExpectation(s, strings[k]), 1e-12)
            << strings[k].toLabel();
    EXPECT_NEAR(expectation(s, h), refSumExpectation(h, s.amplitudes()), 1e-10);
}

TEST(Expectation, RecombineIsDotProduct)
{
    EXPECT_DOUBLE_EQ(recombine({1.0, 2.0}, {0.5, -0.25}), 0.0);
    EXPECT_DOUBLE_EQ(recombine({}, {}), 0.0);
}

/** Property: the grouped batch evaluator agrees with the full-scan
 * reference on random states and mixed string sets. */
class BatchExpectationSweep
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BatchExpectationSweep, GroupedMatchesReference)
{
    Rng rng(GetParam());
    const Statevector s = randomState(GetParam() * 31 + 7);

    // A string set with deliberate x-mask collisions (hopping pairs
    // share X support, like the chemistry Hamiltonians).
    std::vector<PauliString> strings;
    strings.push_back(PauliString(4)); // identity
    for (int trial = 0; trial < 30; ++trial) {
        PauliString p(4);
        for (int q = 0; q < 4; ++q) {
            const char ops[4] = {'I', 'X', 'Y', 'Z'};
            p.setOp(q, ops[rng.uniformInt(4)]);
        }
        strings.push_back(p);
    }

    const auto batch = perStringExpectations(s, strings);
    ASSERT_EQ(batch.size(), strings.size());
    for (std::size_t k = 0; k < strings.size(); ++k) {
        const double reference = strings[k].isIdentity()
            ? 1.0
            : refExpectation(s, strings[k]);
        EXPECT_NEAR(batch[k], reference, 1e-11)
            << strings[k].toLabel();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchExpectationSweep,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull,
                                           6ull, 7ull, 8ull));

/** A pseudo-random normalized n-qubit state (no CX on one qubit). */
Statevector
randomStateN(int n, std::uint64_t seed)
{
    Rng rng(seed);
    Statevector s(n);
    for (int g = 0; g < 12 * n; ++g) {
        const int q = static_cast<int>(rng.uniformInt(n));
        const int p = static_cast<int>((q + 1) % n);
        switch (rng.uniformInt(5)) {
          case 0: s.applyRx(q, rng.uniform(-3, 3)); break;
          case 1: s.applyRy(q, rng.uniform(-3, 3)); break;
          case 2: s.applyRz(q, rng.uniform(-3, 3)); break;
          case 3:
            if (p != q)
                s.applyCx(q, p);
            break;
          default: s.applyH(q); break;
        }
    }
    return s;
}

/**
 * Property: the blocked batch evaluator and both expectation overloads
 * (single string, Pauli sum) agree with the naive full-scan reference
 * on random 6-qubit states and random Pauli sets, to 1e-12.
 */
class KernelEquivalenceSweep
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(KernelEquivalenceSweep, OptimizedMatchesFullScanReference)
{
    Rng rng(GetParam() * 557 + 11);
    const int n = 6;
    const Statevector s = randomStateN(n, GetParam() * 8191 + 5);

    // Random strings with forced x-mask collisions so multi-member
    // groups exercise the blocked member loop.
    std::vector<PauliString> strings;
    strings.push_back(PauliString(n)); // identity
    const char ops[4] = {'I', 'X', 'Y', 'Z'};
    for (int trial = 0; trial < 40; ++trial) {
        PauliString p(n);
        for (int q = 0; q < n; ++q)
            p.setOp(q, ops[rng.uniformInt(4)]);
        strings.push_back(p);
        // A sibling with the same X mask but different Z mask.
        PauliString sib = p;
        for (int q = 0; q < n; ++q) {
            if (rng.uniformInt(2) == 0)
                continue;
            const char c = sib.opAt(q);
            if (c == 'I')
                sib.setOp(q, 'Z');
            else if (c == 'Z')
                sib.setOp(q, 'I');
            else if (c == 'X')
                sib.setOp(q, 'Y');
            else
                sib.setOp(q, 'X');
        }
        strings.push_back(sib);
    }

    const auto batch = perStringExpectations(s, strings);
    ASSERT_EQ(batch.size(), strings.size());
    PauliSum sum(n);
    double sum_reference = 0.0;
    for (std::size_t k = 0; k < strings.size(); ++k) {
        const double coefficient = rng.uniform(-1, 1);
        sum.add(coefficient, strings[k]);
        if (strings[k].isIdentity()) {
            EXPECT_NEAR(batch[k], 1.0, 1e-12);
            sum_reference += coefficient;
            continue;
        }
        const double reference = refExpectation(s, strings[k]);
        sum_reference += coefficient * reference;
        EXPECT_NEAR(batch[k], reference, 1e-12)
            << "batch " << strings[k].toLabel();
        EXPECT_NEAR(expectation(s, strings[k]), reference, 1e-12)
            << "single " << strings[k].toLabel();
    }
    EXPECT_NEAR(expectation(s, sum), sum_reference, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalenceSweep,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull,
                                           6ull, 7ull, 8ull, 9ull,
                                           10ull));

/**
 * Large-n equivalence: at 16 qubits the OpenMP gate paths (dim >=
 * 2^16) and the contiguous-run blocked path of perStringExpectations
 * (highest X bit >= block size) are active; at 11 qubits strings mix
 * the blocked and per-element fallback fills. Both must still match
 * the naive full-scan reference to 1e-12.
 */
TEST(Expectation, LargeSystemBlockedPathsMatchReference)
{
    for (int n : {11, 16}) {
        const Statevector s = randomStateN(n, 271 + n);
        Rng rng(1000 + n);
        std::vector<PauliString> strings;
        const char ops[4] = {'I', 'X', 'Y', 'Z'};
        for (int trial = 0; trial < 12; ++trial) {
            PauliString p(n);
            for (int q = 0; q < n; ++q)
                p.setOp(q, ops[rng.uniformInt(4)]);
            // Half the strings get a forced high-qubit X so the
            // hbit >= kBlockSize contiguous-run path triggers.
            if (trial % 2 == 0)
                p.setOp(n - 1, 'X');
            strings.push_back(p);
        }
        const auto batch = perStringExpectations(s, strings);
        for (std::size_t k = 0; k < strings.size(); ++k) {
            if (strings[k].isIdentity())
                continue;
            EXPECT_NEAR(batch[k], refExpectation(s, strings[k]), 1e-12)
                << n << "q " << strings[k].toLabel();
        }
    }
}

TEST(Expectation, ExpectationBoundsRespected)
{
    // |<P>| <= 1 for any state and non-identity string.
    const Statevector s = randomState(77);
    const char ops[3] = {'X', 'Y', 'Z'};
    for (char a : ops)
        for (char b : ops) {
            PauliString p(4);
            p.setOp(0, a);
            p.setOp(2, b);
            const double e = expectation(s, p);
            EXPECT_LE(std::fabs(e), 1.0 + 1e-12);
        }
}

/** Bitwise equality of two expectation vectors. */
void
expectBitwiseEqual(const std::vector<double> &a,
                   const std::vector<double> &b, const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t k = 0; k < a.size(); ++k)
        EXPECT_EQ(a[k], b[k]) << what << ", string " << k;
}

/**
 * A string list exercising every planning case on n qubits: identities
 * (twice), every Y count the width allows (so each Y count mod 4 picks
 * its weight sign and Re/Im split), random strings, duplicates of
 * earlier strings, and siblings sharing an X mask.
 */
std::vector<PauliString>
planningStrings(int n, std::uint64_t seed)
{
    Rng rng(seed);
    const char ops[4] = {'I', 'X', 'Y', 'Z'};
    std::vector<PauliString> strings;
    strings.push_back(PauliString(n));
    for (int y = 1; y <= std::min(n, 7); ++y) {
        PauliString p(n);
        for (int q = 0; q < n; ++q)
            p.setOp(q, q < y ? 'Y' : ops[rng.uniformInt(4) == 0 ? 1 : 3]);
        strings.push_back(p);
    }
    for (int trial = 0; trial < 24; ++trial) {
        PauliString p(n);
        for (int q = 0; q < n; ++q)
            p.setOp(q, ops[rng.uniformInt(4)]);
        strings.push_back(p);
        // Same X mask, Z flipped on one qubit: a second group member.
        const int q = static_cast<int>(rng.uniformInt(n));
        const char c = p.opAt(q);
        p.setOp(q, c == 'I' ? 'Z' : c == 'Z' ? 'I' : c == 'X' ? 'Y' : 'X');
        strings.push_back(p);
    }
    strings.push_back(strings[3 % strings.size()]);
    strings.push_back(strings[strings.size() / 2]);
    strings.push_back(PauliString(n));
    return strings;
}

/** The all-diagonal list: only Z/I strings, one group. */
std::vector<PauliString>
diagonalStrings(int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<PauliString> strings;
    for (int trial = 0; trial < 16; ++trial) {
        PauliString p(n);
        for (int q = 0; q < n; ++q)
            p.setOp(q, rng.uniformInt(2) == 0 ? 'I' : 'Z');
        strings.push_back(p);
    }
    return strings;
}

/**
 * Property: a plan's evaluate() is bitwise equal to the one-off
 * perStringExpectations call and to the single-lane result, and within
 * 1e-12 of the naive reference, for 1-12 qubits at pool sizes 1, 2
 * and 4.
 */
class ExpectationPlanSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ExpectationPlanSweep, MatchesOneOffAndReference)
{
    for (int n = 1; n <= 12; ++n) {
        const Statevector s = randomStateN(n, 4000 + n);
        for (const auto &strings :
             {planningStrings(n, 50 + n), diagonalStrings(n, 90 + n)}) {
            const std::string what = std::to_string(n) + "q";
            std::vector<double> single_lane;
            {
                PoolSizeGuard guard(1);
                single_lane = ExpectationPlan(strings, n).evaluate(s);
            }
            PoolSizeGuard guard(GetParam());
            const ExpectationPlan plan(strings, n);
            ASSERT_EQ(plan.numStrings(), strings.size());
            const std::vector<double> planned = plan.evaluate(s);
            expectBitwiseEqual(planned, perStringExpectations(s, strings),
                               what + " one-off");
            expectBitwiseEqual(planned, single_lane, what + " 1 lane");
            const std::vector<double> ref =
                refPerStringExpectations(s, strings);
            for (std::size_t k = 0; k < strings.size(); ++k)
                EXPECT_NEAR(planned[k], ref[k], 1e-12)
                    << what << " " << strings[k].toLabel();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Lanes, ExpectationPlanSweep,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}));

TEST(ExpectationPlan, PoolPassFromThresholdMatchesOneLane)
{
    // The sweep above stays below kParallelMinDim, where evaluate()
    // runs serially; at the threshold the work items go to the pool.
    const int n = std::bit_width(kParallelMinDim) - 1;
    const Statevector s = randomStateN(n, 4100);
    const std::vector<PauliString> strings = planningStrings(n, 66);
    const ExpectationPlan plan(strings, n);
    std::vector<double> single_lane;
    {
        PoolSizeGuard guard(1);
        single_lane = plan.evaluate(s);
    }
    const std::vector<double> ref = refPerStringExpectations(s, strings);
    for (std::size_t k = 0; k < strings.size(); ++k)
        EXPECT_NEAR(single_lane[k], ref[k], 1e-12)
            << strings[k].toLabel();
    for (const std::size_t lanes : {2u, 4u}) {
        PoolSizeGuard guard(lanes);
        expectBitwiseEqual(plan.evaluate(s), single_lane,
                           std::to_string(lanes) + " lanes");
    }
}

TEST(ExpectationPlan, ReusedAcrossManyStatesInSequence)
{
    // One plan, many states: no state leaks into the next evaluation.
    const int n = 7;
    const std::vector<PauliString> strings = planningStrings(n, 3);
    const ExpectationPlan plan(strings, n);
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        const Statevector s = randomStateN(n, 700 + seed);
        expectBitwiseEqual(plan.evaluate(s),
                           perStringExpectations(s, strings),
                           "seed " + std::to_string(seed));
    }
}

TEST(ExpectationPlan, ConcurrentEvaluationsFromPoolTasks)
{
    // One shared plan evaluated from pool tasks on different states
    // (each task's own fan-out runs inline), against serial results.
    const int n = 12; // two blocks per off-diagonal group
    const std::vector<PauliString> strings = planningStrings(n, 11);
    const ExpectationPlan plan(strings, n);
    std::vector<Statevector> states;
    std::vector<std::vector<double>> serial;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        states.push_back(randomStateN(n, 900 + seed));
        serial.push_back(plan.evaluate(states.back()));
    }
    PoolSizeGuard guard(4);
    std::vector<std::vector<double>> concurrent(states.size());
    ThreadPool::global().run(states.size(), [&](std::size_t i) {
        concurrent[i] = plan.evaluate(states[i]);
    });
    for (std::size_t i = 0; i < states.size(); ++i)
        expectBitwiseEqual(concurrent[i], serial[i],
                           "state " + std::to_string(i));
}

TEST(ExpectationPlan, PauliSumPlanRecombinesToTheOverload)
{
    // The Pauli-sum overload is recombine(termCoefficients(H),
    // ExpectationPlan(H).evaluate(state)), bitwise.
    const PauliSum h = xxzChain(5, 1.0, 0.6);
    const ExpectationPlan plan(h);
    ASSERT_EQ(plan.numStrings(), h.numTerms());
    ASSERT_EQ(plan.numQubits(), 5);
    const std::vector<double> coefficients = termCoefficients(h);
    ASSERT_EQ(coefficients.size(), h.numTerms());
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const Statevector s = randomStateN(5, 60 + seed);
        EXPECT_EQ(recombine(coefficients, plan.evaluate(s)),
                  expectation(s, h));
    }
}

} // namespace
} // namespace treevqa
