/**
 * @file
 * Test helper: bit-identity digests of prepared states and expectation
 * plan outputs.
 *
 * Every case prepares a state from a basis state through
 * Ansatz::prepareInto and hashes it with FNV-1a over the bytes of each
 * value plus 0.0, which folds -0 into +0 and keeps every other bit. The
 * pinned tables in test_compiled_circuit.cpp and test_expectation.cpp
 * were produced by this same code on the commit before the
 * product-state prefix and the flat op table landed, so a kernel or
 * executor change that moves any amplitude's bits fails them.
 *
 * The bits depend on the build: where the target has FMA, which
 * products are fused; without it, none is. So each test pins one
 * table per configuration it was generated and checked in: x86-64 GCC
 * with FMA (-march=native on an AVX-512 host and -march=haswell, an
 * AVX2-only target, give the same table) and x86-64 GCC without (the
 * portable default, at -O2 and -O3, with and without ASan + UBSan).
 * Other builds skip the pinned comparison; the build-relative checks
 * (gate passes at every stride, Cx moves, the two pair-product walks)
 * run everywhere.
 */

#ifndef TREEVQA_TESTS_PARENT_DIGESTS_H
#define TREEVQA_TESTS_PARENT_DIGESTS_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numbers>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/hardware_efficient.h"
#include "circuit/ma_qaoa.h"
#include "circuit/uccsd_min.h"
#include "common/rng.h"
#include "ham/spin_chains.h"
#include "sim/expectation.h"

#include "pool_size_guard.h"

namespace treevqa {

/** FNV-1a over the bytes of each value + 0.0. */
class ValueDigest
{
  public:
    void add(double value)
    {
        const double folded = value + 0.0;
        unsigned char bytes[sizeof folded];
        std::memcpy(bytes, &folded, sizeof folded);
        for (const unsigned char b : bytes) {
            hash_ ^= b;
            hash_ *= 1099511628211ull;
        }
    }

    void add(const Complex &value)
    {
        add(value.real());
        add(value.imag());
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 14695981039346656037ull;
};

/** The every-gate-kind random circuit of seed `seed` (5 qubits, 150
 * gates, two parameters). */
inline Circuit
randomMixedCircuit(std::uint64_t seed)
{
    Rng rng(seed * 7919);
    const int n = 5;
    Circuit c(n);
    const int p0 = c.addParam();
    const int p1 = c.addParam();
    for (int g = 0; g < 150; ++g) {
        const int q = static_cast<int>(rng.uniformInt(n));
        const int r =
            static_cast<int>((q + 1 + rng.uniformInt(n - 1)) % n);
        switch (rng.uniformInt(14)) {
          case 0: c.rx(q, rng.uniform(-3, 3)); break;
          case 1: c.ry(q, rng.uniform(-3, 3)); break;
          case 2: c.rz(q, rng.uniform(-3, 3)); break;
          case 3: c.h(q); break;
          case 4: c.x(q); break;
          case 5: c.s(q); break;
          case 6: c.sdg(q); break;
          case 7: c.cx(q, r); break;
          case 8: c.cz(q, r); break;
          case 9: c.rzz(q, r, rng.uniform(-3, 3)); break;
          case 10: c.rxx(q, r, rng.uniform(-3, 3)); break;
          case 11: c.ryy(q, r, rng.uniform(-3, 3)); break;
          case 12: c.rxParam(q, p0, rng.uniform(-1, 1)); break;
          default: c.rzzParam(q, r, p1, rng.uniform(-1, 1)); break;
        }
    }
    return c;
}

/** One digest case: a named ansatz (with its initial bits). */
struct DigestCircuit
{
    std::string name;
    Ansatz ansatz;
};

/** HEA at 2..16 qubits (initial bits 0 and 0x5555 masked to the
 * width), ma-QAOA, UCCSD-min and the six random mixed circuits. */
inline std::vector<DigestCircuit>
digestCircuits()
{
    std::vector<DigestCircuit> cases;
    for (const int n : {2, 4, 6, 8, 16}) {
        const std::uint64_t mask = (std::uint64_t{1} << n) - 1;
        for (const std::uint64_t bits : {std::uint64_t{0},
                                         std::uint64_t{0x5555} & mask})
            cases.push_back(
                {"hea" + std::to_string(n) + "_b"
                     + std::to_string(bits),
                 makeHardwareEfficientAnsatz(n, 2, bits)});
    }
    std::vector<QuboClause> ring;
    for (int q = 0; q < 6; ++q)
        ring.push_back(QuboClause{q, (q + 1) % 6, 1.0 + 0.25 * q});
    ring.push_back(QuboClause{0, 3, -0.5});
    cases.push_back({"maqaoa6", makeMaQaoaAnsatz(6, ring, 2, true)});
    cases.push_back({"uccsd_min", makeUccsdMinimalAnsatz()});
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        cases.push_back({"mixed" + std::to_string(seed),
                         Ansatz(randomMixedCircuit(seed), 0)});
    return cases;
}

/** The three parameter bindings: random in [-pi, pi], all 0, all pi. */
inline std::vector<std::pair<std::string, std::vector<double>>>
digestAngles(int num_params, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> random(static_cast<std::size_t>(num_params));
    for (double &t : random)
        t = rng.uniform(-std::numbers::pi, std::numbers::pi);
    return {{"rand", random},
            {"zero", std::vector<double>(random.size(), 0.0)},
            {"pi", std::vector<double>(random.size(), std::numbers::pi)}};
}

/** A digest table row: case/angles key and its pinned value. */
struct PinnedDigest
{
    const char *key;
    std::uint64_t value;
};

using DigestRows = std::vector<std::pair<std::string, std::uint64_t>>;

/** Print a computed table in the pinned tables' initializer form. */
inline void
printDigestTable(const DigestRows &rows)
{
    for (const auto &[key, value] : rows)
        std::printf("    {\"%s\", 0x%016llxull},\n", key.c_str(),
                    static_cast<unsigned long long>(value));
}

/** The pinned configuration this build belongs to. */
enum class DigestBuild
{
    Fused,   ///< x86-64 GCC, target with FMA
    Unfused, ///< x86-64 GCC, target without FMA
    Unpinned
};

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#ifdef __FP_FAST_FMA
constexpr DigestBuild kDigestBuild = DigestBuild::Fused;
#else
constexpr DigestBuild kDigestBuild = DigestBuild::Unfused;
#endif
#else
constexpr DigestBuild kDigestBuild = DigestBuild::Unpinned;
#endif

/**
 * Expect compute() to give this build's pinned table at pool sizes 1
 * and 4; on a mismatch, print the computed table. Skips the test in a
 * configuration no table was pinned for.
 */
template <typename Compute>
void
expectPinnedDigests(Compute compute, std::span<const PinnedDigest> fused,
                    std::span<const PinnedDigest> unfused)
{
    if (kDigestBuild == DigestBuild::Unpinned)
        GTEST_SKIP() << "no digests pinned for this compiler and target";
    const std::span<const PinnedDigest> pinned =
        kDigestBuild == DigestBuild::Fused ? fused : unfused;
    for (const std::size_t lanes : {1u, 4u}) {
        PoolSizeGuard guard(lanes);
        const DigestRows rows = compute();
        EXPECT_EQ(rows.size(), pinned.size());
        for (std::size_t i = 0; i < std::min(rows.size(), pinned.size());
             ++i) {
            EXPECT_EQ(rows[i].first, pinned[i].key);
            EXPECT_EQ(rows[i].second, pinned[i].value)
                << rows[i].first << " at " << lanes << " lanes";
        }
        if (::testing::Test::HasFailure()) {
            printDigestTable(rows);
            return;
        }
    }
}

} // namespace treevqa

#endif // TREEVQA_TESTS_PARENT_DIGESTS_H
