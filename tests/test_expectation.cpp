/**
 * @file
 * Tests for exact Pauli expectations on statevectors: the planned
 * grouped evaluator (ExpectationPlan), the one-off wrappers built on
 * it, and their agreement with the naive full-scan references.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ham/spin_chains.h"
#include "sim/bit_ops.h"
#include "sim/expectation.h"
#include "sim/reference_kernels.h"

#include "parent_digests.h"
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

/** Digests of the TFIM and XXZ plan outputs on every digest case's
 * states (see parent_digests.h). */
DigestRows
planDigests()
{
    DigestRows rows;
    for (const DigestCircuit &c : digestCircuits()) {
        const int n = c.ansatz.numQubits();
        const ExpectationPlan tfim(transverseFieldIsing(n, 1.0, 0.7));
        const ExpectationPlan xxz(xxzChain(n, 1.0, 0.6));
        Statevector state(n);
        for (const auto &[angles, theta] :
             digestAngles(c.ansatz.numParams(), 17)) {
            c.ansatz.prepareInto(state, theta);
            for (const auto &[ham, plan] :
                 {std::pair{"tfim", &tfim}, std::pair{"xxz", &xxz}}) {
                ValueDigest digest;
                for (const double v : plan->evaluate(state))
                    digest.add(v);
                rows.emplace_back(c.name + "/" + angles + "/" + ham,
                                  digest.value());
            }
        }
    }
    return rows;
}

/** planDigests() on the parent of the product-state prefix, built
 * with FMA. */
const PinnedDigest kParentPlanDigestsFused[] = {
    {"hea2_b0/rand/tfim", 0x6d6c243a11e234fcull},
    {"hea2_b0/rand/xxz", 0x6d0a5cd823831e61ull},
    {"hea2_b0/zero/tfim", 0xbd85f5df2322cbb8ull},
    {"hea2_b0/zero/xxz", 0x8208b0d7006a7278ull},
    {"hea2_b0/pi/tfim", 0x47f339ed62f9575full},
    {"hea2_b0/pi/xxz", 0xe5b2012062383048ull},
    {"hea2_b1/rand/tfim", 0x0a0102fb7d2b513aull},
    {"hea2_b1/rand/xxz", 0x5cace938f59785b6ull},
    {"hea2_b1/zero/tfim", 0xbd85f5df2322cbb8ull},
    {"hea2_b1/zero/xxz", 0x8208b0d7006a7278ull},
    {"hea2_b1/pi/tfim", 0xa12d12c50c52efd9ull},
    {"hea2_b1/pi/xxz", 0x236851c423064148ull},
    {"hea4_b0/rand/tfim", 0x987567d388c178a9ull},
    {"hea4_b0/rand/xxz", 0x55981fec583c34d2ull},
    {"hea4_b0/zero/tfim", 0xf6aa8c74168bc258ull},
    {"hea4_b0/zero/xxz", 0xaf8e06f96e34a7d8ull},
    {"hea4_b0/pi/tfim", 0x7dc00c9696f5044cull},
    {"hea4_b0/pi/xxz", 0x6c5635e3a4ec6b61ull},
    {"hea4_b5/rand/tfim", 0x63bd778060e78705ull},
    {"hea4_b5/rand/xxz", 0x0f72a5bd62a261d3ull},
    {"hea4_b5/zero/tfim", 0x894b43c15de22dd8ull},
    {"hea4_b5/zero/xxz", 0xb888e90f6ec60e58ull},
    {"hea4_b5/pi/tfim", 0xa876c483eee08178ull},
    {"hea4_b5/pi/xxz", 0x03bedc64284f6190ull},
    {"hea6_b0/rand/tfim", 0x1591e22d62ce2376ull},
    {"hea6_b0/rand/xxz", 0xc1ff9160fa2f9e84ull},
    {"hea6_b0/zero/tfim", 0x29afb7fab6d6ce78ull},
    {"hea6_b0/zero/xxz", 0x86180ebad06412b8ull},
    {"hea6_b0/pi/tfim", 0x59e8920316b3cd17ull},
    {"hea6_b0/pi/xxz", 0x03d3c0af3b1b6586ull},
    {"hea6_b21/rand/tfim", 0x9082788715b831e2ull},
    {"hea6_b21/rand/xxz", 0x9605df9d6cab800full},
    {"hea6_b21/zero/tfim", 0xb53dd95bcfbeb578ull},
    {"hea6_b21/zero/xxz", 0xea2a50284a2179b8ull},
    {"hea6_b21/pi/tfim", 0xc42eff11c278b1ffull},
    {"hea6_b21/pi/xxz", 0x1499465f7a4f85b9ull},
    {"hea8_b0/rand/tfim", 0x06c3778ded902a24ull},
    {"hea8_b0/rand/xxz", 0x8d3c2bb428f5ed3dull},
    {"hea8_b0/zero/tfim", 0x5b08ee243c2e5718ull},
    {"hea8_b0/zero/xxz", 0x1e008a87e16fc818ull},
    {"hea8_b0/pi/tfim", 0xfc193aed477bec78ull},
    {"hea8_b0/pi/xxz", 0x3e5a0084ff1021a0ull},
    {"hea8_b85/rand/tfim", 0xc7442c92c11127c9ull},
    {"hea8_b85/rand/xxz", 0xcc69925c991af9e2ull},
    {"hea8_b85/zero/tfim", 0x7d886b730f7b1b98ull},
    {"hea8_b85/zero/xxz", 0x5850f80baecc7598ull},
    {"hea8_b85/pi/tfim", 0x67e5f7e641f78e0dull},
    {"hea8_b85/pi/xxz", 0x2f1e0f71483f4f60ull},
    {"hea16_b0/rand/tfim", 0x453ce1fe2eeb24a4ull},
    {"hea16_b0/rand/xxz", 0x405b9ca0c541a50dull},
    {"hea16_b0/zero/tfim", 0x5dca7a2a33d64098ull},
    {"hea16_b0/zero/xxz", 0x91c68a7b1e31e498ull},
    {"hea16_b0/pi/tfim", 0xc8b9fe127a46a501ull},
    {"hea16_b0/pi/xxz", 0xd156fc98550d11abull},
    {"hea16_b21845/rand/tfim", 0x6bc86bed8d06a448ull},
    {"hea16_b21845/rand/xxz", 0x29fc99f9cc2b2ec7ull},
    {"hea16_b21845/zero/tfim", 0xae736958920e8e18ull},
    {"hea16_b21845/zero/xxz", 0xa5fb151319ced218ull},
    {"hea16_b21845/pi/tfim", 0xecfb01b055b09374ull},
    {"hea16_b21845/pi/xxz", 0x16ca5c5cc05727f8ull},
    {"maqaoa6/rand/tfim", 0x1c2437504b4035caull},
    {"maqaoa6/rand/xxz", 0x35045ce2abfbc246ull},
    {"maqaoa6/zero/tfim", 0xd071766df3c19835ull},
    {"maqaoa6/zero/xxz", 0xa8b16197ec6ae4caull},
    {"maqaoa6/pi/tfim", 0xd7a1289b1090c7b8ull},
    {"maqaoa6/pi/xxz", 0xb366d6f095ef46a6ull},
    {"uccsd_min/rand/tfim", 0x926ac9a79cace007ull},
    {"uccsd_min/rand/xxz", 0xe431d42d3f6a6bc7ull},
    {"uccsd_min/zero/tfim", 0xf059c649dc99d948ull},
    {"uccsd_min/zero/xxz", 0x1569ba07f7271dc8ull},
    {"uccsd_min/pi/tfim", 0xe66d778c74602fceull},
    {"uccsd_min/pi/xxz", 0x9ff84d6e56a904ceull},
    {"mixed1/rand/tfim", 0x1a15266211bed833ull},
    {"mixed1/rand/xxz", 0xaab9421832b48399ull},
    {"mixed1/zero/tfim", 0x35b3beca5923c57eull},
    {"mixed1/zero/xxz", 0xb48db898c38bb4beull},
    {"mixed1/pi/tfim", 0x1d1027b817b6a430ull},
    {"mixed1/pi/xxz", 0xeb8e9f001ff34173ull},
    {"mixed2/rand/tfim", 0x349d1c88a1592ec6ull},
    {"mixed2/rand/xxz", 0x7b9722a713f54a1full},
    {"mixed2/zero/tfim", 0x0202f76429906d22ull},
    {"mixed2/zero/xxz", 0x108fdd893ebb68f6ull},
    {"mixed2/pi/tfim", 0xb72b8a5ed4bdd8d3ull},
    {"mixed2/pi/xxz", 0xe4d2ff472ea9d322ull},
    {"mixed3/rand/tfim", 0xea199f6a6f074dacull},
    {"mixed3/rand/xxz", 0xbd6219f793c4c530ull},
    {"mixed3/zero/tfim", 0xed5209a4e9073eb0ull},
    {"mixed3/zero/xxz", 0x74718303a9d54ef3ull},
    {"mixed3/pi/tfim", 0xf4950a8109299025ull},
    {"mixed3/pi/xxz", 0x9b09e40bcabe4898ull},
    {"mixed4/rand/tfim", 0x27dcbde2dab99862ull},
    {"mixed4/rand/xxz", 0x576e6e2596fa178cull},
    {"mixed4/zero/tfim", 0xf1b0492a94f2440aull},
    {"mixed4/zero/xxz", 0x11f06c2fe188aac0ull},
    {"mixed4/pi/tfim", 0x4e3fc87ddeca9c57ull},
    {"mixed4/pi/xxz", 0xa8adcb6eeb001f3aull},
    {"mixed5/rand/tfim", 0xc5e4fb2f22f6c388ull},
    {"mixed5/rand/xxz", 0xcc6713288f7c8f91ull},
    {"mixed5/zero/tfim", 0xaf67c44a63b27bb0ull},
    {"mixed5/zero/xxz", 0x7f61a6ef0d4b4ec1ull},
    {"mixed5/pi/tfim", 0xd3f89eecc6140bf1ull},
    {"mixed5/pi/xxz", 0x405fa744aa792c6aull},
    {"mixed6/rand/tfim", 0xc7d1cad4bf3ff162ull},
    {"mixed6/rand/xxz", 0x0a95890ea7d46472ull},
    {"mixed6/zero/tfim", 0x5761184b7273eebcull},
    {"mixed6/zero/xxz", 0x8407c1fdc6caaaf0ull},
    {"mixed6/pi/tfim", 0xba9f7eb395b790e3ull},
    {"mixed6/pi/xxz", 0x19edec30e3e7947cull},
};

/** The same, built without FMA. */
const PinnedDigest kParentPlanDigestsUnfused[] = {
    {"hea2_b0/rand/tfim", 0x54e94c859c892ba6ull},
    {"hea2_b0/rand/xxz", 0x46081447fdcac2f1ull},
    {"hea2_b0/zero/tfim", 0xbd85f5df2322cbb8ull},
    {"hea2_b0/zero/xxz", 0x8208b0d7006a7278ull},
    {"hea2_b0/pi/tfim", 0x47f339ed62f9575full},
    {"hea2_b0/pi/xxz", 0xe5b2012062383048ull},
    {"hea2_b1/rand/tfim", 0x187be64a3136c3cdull},
    {"hea2_b1/rand/xxz", 0x287589eeaab708b9ull},
    {"hea2_b1/zero/tfim", 0xbd85f5df2322cbb8ull},
    {"hea2_b1/zero/xxz", 0x8208b0d7006a7278ull},
    {"hea2_b1/pi/tfim", 0xa12d12c50c52efd9ull},
    {"hea2_b1/pi/xxz", 0x236851c423064148ull},
    {"hea4_b0/rand/tfim", 0xd26da2dd5b33112eull},
    {"hea4_b0/rand/xxz", 0x5d4479e2bdb9aafeull},
    {"hea4_b0/zero/tfim", 0xf6aa8c74168bc258ull},
    {"hea4_b0/zero/xxz", 0xaf8e06f96e34a7d8ull},
    {"hea4_b0/pi/tfim", 0x7dc00c9696f5044cull},
    {"hea4_b0/pi/xxz", 0x6c5635e3a4ec6b61ull},
    {"hea4_b5/rand/tfim", 0x24f2e6e3d1f53284ull},
    {"hea4_b5/rand/xxz", 0xfbe37ffe3f129091ull},
    {"hea4_b5/zero/tfim", 0x894b43c15de22dd8ull},
    {"hea4_b5/zero/xxz", 0xb888e90f6ec60e58ull},
    {"hea4_b5/pi/tfim", 0xa876c483eee08178ull},
    {"hea4_b5/pi/xxz", 0x03bedc64284f6190ull},
    {"hea6_b0/rand/tfim", 0x129aaae9b5a9a1a1ull},
    {"hea6_b0/rand/xxz", 0xb17d89069ea255d1ull},
    {"hea6_b0/zero/tfim", 0x29afb7fab6d6ce78ull},
    {"hea6_b0/zero/xxz", 0x86180ebad06412b8ull},
    {"hea6_b0/pi/tfim", 0x59e8920316b3cd17ull},
    {"hea6_b0/pi/xxz", 0x03d3c0af3b1b6586ull},
    {"hea6_b21/rand/tfim", 0x230c519022299a09ull},
    {"hea6_b21/rand/xxz", 0x55ab2971eef88aa2ull},
    {"hea6_b21/zero/tfim", 0xb53dd95bcfbeb578ull},
    {"hea6_b21/zero/xxz", 0xea2a50284a2179b8ull},
    {"hea6_b21/pi/tfim", 0xc42eff11c278b1ffull},
    {"hea6_b21/pi/xxz", 0x1499465f7a4f85b9ull},
    {"hea8_b0/rand/tfim", 0x1602ea9d09a2ac4full},
    {"hea8_b0/rand/xxz", 0x8d69af65d9df9fdbull},
    {"hea8_b0/zero/tfim", 0x5b08ee243c2e5718ull},
    {"hea8_b0/zero/xxz", 0x1e008a87e16fc818ull},
    {"hea8_b0/pi/tfim", 0xfc193aed477bec78ull},
    {"hea8_b0/pi/xxz", 0x3e5a0084ff1021a0ull},
    {"hea8_b85/rand/tfim", 0x68b126c3bf14b0a9ull},
    {"hea8_b85/rand/xxz", 0x6e6b6c45307f2976ull},
    {"hea8_b85/zero/tfim", 0x7d886b730f7b1b98ull},
    {"hea8_b85/zero/xxz", 0x5850f80baecc7598ull},
    {"hea8_b85/pi/tfim", 0x67e5f7e641f78e0dull},
    {"hea8_b85/pi/xxz", 0x2f1e0f71483f4f60ull},
    {"hea16_b0/rand/tfim", 0x5421c7d566f2797cull},
    {"hea16_b0/rand/xxz", 0x29e2994ba0fa603eull},
    {"hea16_b0/zero/tfim", 0x5dca7a2a33d64098ull},
    {"hea16_b0/zero/xxz", 0x91c68a7b1e31e498ull},
    {"hea16_b0/pi/tfim", 0xc8b9fe127a46a501ull},
    {"hea16_b0/pi/xxz", 0xd156fc98550d11abull},
    {"hea16_b21845/rand/tfim", 0x2b3708e07007c58cull},
    {"hea16_b21845/rand/xxz", 0x7aab671cc6fe80c0ull},
    {"hea16_b21845/zero/tfim", 0xae736958920e8e18ull},
    {"hea16_b21845/zero/xxz", 0xa5fb151319ced218ull},
    {"hea16_b21845/pi/tfim", 0xecfb01b055b09374ull},
    {"hea16_b21845/pi/xxz", 0x16ca5c5cc05727f8ull},
    {"maqaoa6/rand/tfim", 0x09682caec1109172ull},
    {"maqaoa6/rand/xxz", 0xdf07b13ca47d751eull},
    {"maqaoa6/zero/tfim", 0xd071766df3c19835ull},
    {"maqaoa6/zero/xxz", 0xa8b16197ec6ae4caull},
    {"maqaoa6/pi/tfim", 0x9d9cec6ff3ff6c29ull},
    {"maqaoa6/pi/xxz", 0x51b1571e5f49d34full},
    {"uccsd_min/rand/tfim", 0x42edb285ed9ca198ull},
    {"uccsd_min/rand/xxz", 0xfc4ef282e1106218ull},
    {"uccsd_min/zero/tfim", 0xf059c649dc99d948ull},
    {"uccsd_min/zero/xxz", 0x1569ba07f7271dc8ull},
    {"uccsd_min/pi/tfim", 0x98424b726a14def0ull},
    {"uccsd_min/pi/xxz", 0x66d738287884b470ull},
    {"mixed1/rand/tfim", 0x742f012af441859eull},
    {"mixed1/rand/xxz", 0x55af8b632006d09full},
    {"mixed1/zero/tfim", 0x343087f23acbe754ull},
    {"mixed1/zero/xxz", 0xf47c077e78d9149eull},
    {"mixed1/pi/tfim", 0xa8a521c26a0c08f8ull},
    {"mixed1/pi/xxz", 0xd3633d13f47cc348ull},
    {"mixed2/rand/tfim", 0xc03927b462a4b4abull},
    {"mixed2/rand/xxz", 0xff0855fd447620a0ull},
    {"mixed2/zero/tfim", 0xd2edf47fe8f3c99eull},
    {"mixed2/zero/xxz", 0xb8caccc806bd0f12ull},
    {"mixed2/pi/tfim", 0x843d712f417fe17bull},
    {"mixed2/pi/xxz", 0xfda3df2e79901bdfull},
    {"mixed3/rand/tfim", 0x623dbcdaaf6acbf3ull},
    {"mixed3/rand/xxz", 0xd23429e41180e87dull},
    {"mixed3/zero/tfim", 0x0f8f29fc3d4672baull},
    {"mixed3/zero/xxz", 0x6a74d83a458be2beull},
    {"mixed3/pi/tfim", 0xd75775a11dc2b98cull},
    {"mixed3/pi/xxz", 0x9e2a041c0cda02fbull},
    {"mixed4/rand/tfim", 0x9d998fe50c8a55deull},
    {"mixed4/rand/xxz", 0xbe5a3540daa643aeull},
    {"mixed4/zero/tfim", 0x92ced95d74fa1f50ull},
    {"mixed4/zero/xxz", 0x3fac9a4c784049deull},
    {"mixed4/pi/tfim", 0xd00c0c21baabaae3ull},
    {"mixed4/pi/xxz", 0x34cfc7a180a2434bull},
    {"mixed5/rand/tfim", 0xb15ff218a5b6e608ull},
    {"mixed5/rand/xxz", 0x2d98660d46130788ull},
    {"mixed5/zero/tfim", 0x1833851c2dd31dc9ull},
    {"mixed5/zero/xxz", 0xeaeff0b0d18712f5ull},
    {"mixed5/pi/tfim", 0x1e725bd46761981full},
    {"mixed5/pi/xxz", 0xddbdb7d6f17dcc27ull},
    {"mixed6/rand/tfim", 0x9997a87dbc15008aull},
    {"mixed6/rand/xxz", 0x3dfed01775a71bd1ull},
    {"mixed6/zero/tfim", 0x5e31111666a5367cull},
    {"mixed6/zero/xxz", 0x1c70427afd46be2eull},
    {"mixed6/pi/tfim", 0x70314379c098bed7ull},
    {"mixed6/pi/xxz", 0x88ed9024381afbd3ull},
};

TEST(ExpectationPlan, MatchesParentDigests)
{
    expectPinnedDigests(planDigests, kParentPlanDigestsFused,
                        kParentPlanDigestsUnfused);
}

TEST(ExpectationPlan, PairProductWalksAgree)
{
#ifdef __AVX512F__
    // processBlock takes the eight-wide gather whenever a block's pair
    // count is a multiple of 8 and the run walk otherwise; both must
    // give every product the same bits, at every X mask.
    Rng rng(4242);
    for (const int n : {4, 5, 7, 12}) {
        Statevector state(n);
        for (Complex &a : state.amplitudes())
            a = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
        const std::size_t range = state.dim() / 2;
        std::vector<std::uint64_t> masks;
        for (std::uint64_t xm = 1; xm < state.dim(); ++xm)
            if (n <= 7 || std::popcount(xm) <= 2)
                masks.push_back(xm);
        for (const std::uint64_t xm : masks) {
            const std::size_t hbit = std::bit_floor(xm);
            for (std::size_t k0 = 0; k0 < range; k0 += 1024) {
                const std::size_t kn = std::min<std::size_t>(1024,
                                                             range - k0);
                alignas(64) double runs_re[1024], runs_im[1024];
                alignas(64) double wide_re[1024], wide_im[1024];
                detail::pairProductRuns(xm, hbit, k0, kn,
                                        state.amplitudes().data(),
                                        runs_re, runs_im);
                detail::pairProducts8(xm, hbit, k0, kn,
                                      state.amplitudes().data(), wide_re,
                                      wide_im);
                EXPECT_EQ(std::memcmp(runs_re, wide_re, kn * sizeof(double)),
                          0)
                    << "n " << n << " xm " << xm << " k0 " << k0;
                EXPECT_EQ(std::memcmp(runs_im, wide_im, kn * sizeof(double)),
                          0)
                    << "n " << n << " xm " << xm << " k0 " << k0;
            }
        }
    }
#else
    GTEST_SKIP() << "pairProducts8 needs AVX-512; this build runs "
                    "pairProductRuns for every block";
#endif
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
