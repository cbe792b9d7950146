/**
 * @file
 * Tests for the conventional-VQA baseline runner (Section 7.3).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "circuit/hardware_efficient.h"
#include "core/baseline.h"
#include "ham/spin_chains.h"
#include "opt/spsa.h"

#include "pool_size_guard.h"

namespace treevqa {
namespace {

std::vector<VqaTask>
tfimTasks(int sites, int count)
{
    auto tasks =
        makeTasks("tfim", tfimFamily(sites, 0.5, 1.5, count), 0);
    solveGroundEnergies(tasks);
    return tasks;
}

BaselineConfig
quickConfig(std::uint64_t budget, int iters)
{
    BaselineConfig cfg;
    cfg.shotBudget = budget;
    cfg.maxIterationsPerTask = iters;
    cfg.metricsInterval = 5;
    cfg.seed = 21;
    return cfg;
}

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** Shots, rounds, outcomes and every trace sample agree bit for bit. */
void
expectBaselinesBitIdentical(const BaselineResult &a,
                            const BaselineResult &b)
{
    EXPECT_EQ(a.totalShots, b.totalShots);
    EXPECT_EQ(a.rounds, b.rounds);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i)
        EXPECT_EQ(bits(a.outcomes[i].bestEnergy),
                  bits(b.outcomes[i].bestEnergy))
            << "task " << i;
    ASSERT_EQ(a.trace.size(), b.trace.size());
    ASSERT_GE(a.trace.size(), 2u);
    for (std::size_t s = 0; s < a.trace.size(); ++s) {
        EXPECT_EQ(a.trace[s].shots, b.trace[s].shots) << s;
        EXPECT_EQ(a.trace[s].iteration, b.trace[s].iteration) << s;
        EXPECT_EQ(a.trace[s].numClusters, b.trace[s].numClusters);
        ASSERT_EQ(a.trace[s].bestEnergies.size(), a.outcomes.size());
        ASSERT_EQ(b.trace[s].bestEnergies.size(), a.outcomes.size());
        for (std::size_t i = 0; i < a.outcomes.size(); ++i)
            EXPECT_EQ(bits(a.trace[s].bestEnergies[i]),
                      bits(b.trace[s].bestEnergies[i]))
                << "sample " << s << " task " << i;
    }
}

TEST(Baseline, SharesBudgetEqually)
{
    const auto tasks = tfimTasks(4, 4);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(4, 2, 0);
    Spsa proto(SpsaConfig{}, 1);

    const std::uint64_t budget = 60'000'000ull;
    const BaselineResult res =
        runBaseline(tasks, ansatz, proto, quickConfig(budget, 100000));
    // Total close to the budget (each task stops at its share).
    EXPECT_LE(res.totalShots, budget + budget / 4);
    EXPECT_GT(res.totalShots, budget / 2);
}

TEST(Baseline, IterationCapRespected)
{
    const auto tasks = tfimTasks(3, 3);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(3, 2, 0);
    Spsa proto(SpsaConfig{}, 2);
    const BaselineResult res =
        runBaseline(tasks, ansatz, proto, quickConfig(1ull << 62, 40));
    // 3 tasks x 40 iterations x 2 evals x terms x 4096.
    const std::uint64_t per_eval =
        4096ull * tasks[0].hamiltonian.numMeasuredTerms();
    EXPECT_EQ(res.totalShots, 3ull * 40ull * 2ull * per_eval);
}

TEST(Baseline, OutcomesPerTask)
{
    const auto tasks = tfimTasks(4, 5);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(4, 2, 0);
    Spsa proto(SpsaConfig{}, 3);
    const BaselineResult res =
        runBaseline(tasks, ansatz, proto, quickConfig(1ull << 62, 60));
    ASSERT_EQ(res.outcomes.size(), tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        EXPECT_TRUE(std::isfinite(res.outcomes[i].bestEnergy));
        EXPECT_GE(res.outcomes[i].bestEnergy,
                  tasks[i].groundEnergy - 1e-8);
        EXPECT_LE(res.outcomes[i].fidelity, 1.0 + 1e-12);
    }
}

TEST(Baseline, ImprovesOverIterations)
{
    const auto tasks = tfimTasks(4, 3);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(4, 2, 0);
    Spsa proto(SpsaConfig{}, 4);
    const BaselineResult res =
        runBaseline(tasks, ansatz, proto, quickConfig(1ull << 62, 150));
    ASSERT_GE(res.trace.size(), 3u);
    const double early = minFidelity(res.trace.front(), tasks);
    const double late = minFidelity(res.trace.back(), tasks);
    EXPECT_GT(late, early);
}

TEST(Baseline, WarmStartParametersApplied)
{
    // With zero iterations of improvement allowed, the warm start
    // determines the outcome; verify the trace reflects it.
    const auto tasks = tfimTasks(3, 2);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(3, 2, 0);
    Spsa proto(SpsaConfig{}, 5);
    BaselineConfig cfg = quickConfig(1ull << 62, 3);

    const std::vector<double> warm(ansatz.numParams(), 0.3);
    const BaselineResult res =
        runBaseline(tasks, ansatz, proto, cfg, warm);
    EXPECT_EQ(res.outcomes.size(), tasks.size());
    // No crash and valid energies is the contract here.
    for (const auto &o : res.outcomes)
        EXPECT_TRUE(std::isfinite(o.bestEnergy));
}

TEST(Baseline, TraceMonotone)
{
    const auto tasks = tfimTasks(3, 3);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(3, 2, 0);
    Spsa proto(SpsaConfig{}, 6);
    const BaselineResult res =
        runBaseline(tasks, ansatz, proto, quickConfig(1ull << 62, 60));
    for (std::size_t s = 1; s < res.trace.size(); ++s) {
        EXPECT_GE(res.trace[s].shots, res.trace[s - 1].shots);
        for (std::size_t i = 0; i < tasks.size(); ++i)
            EXPECT_LE(res.trace[s].bestEnergies[i],
                      res.trace[s - 1].bestEnergies[i] + 1e-12);
    }
}

TEST(Baseline, DeterministicForSameSeed)
{
    const auto tasks = tfimTasks(3, 2);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(3, 2, 0);
    Spsa proto(SpsaConfig{}, 7);
    const BaselineResult a =
        runBaseline(tasks, ansatz, proto, quickConfig(1ull << 62, 30));
    const BaselineResult b =
        runBaseline(tasks, ansatz, proto, quickConfig(1ull << 62, 30));
    for (std::size_t i = 0; i < a.outcomes.size(); ++i)
        EXPECT_DOUBLE_EQ(a.outcomes[i].bestEnergy,
                         b.outcomes[i].bestEnergy);
}

TEST(Baseline, SingleTaskRunsMatchBitForBit)
{
    // Two single-task baselines from the same seeds, one stopped by
    // its budget, the other by the iteration cap: outcomes and every
    // trace sample agree bit for bit.
    const auto tasks = tfimTasks(3, 1);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(3, 2, 0);
    for (const std::uint64_t budget : {1'000'000ull, 1ull << 62}) {
        const Spsa proto_a(SpsaConfig{}, 8);
        const Spsa proto_b(SpsaConfig{}, 8);
        const BaselineResult a =
            runBaseline(tasks, ansatz, proto_a, quickConfig(budget, 60));
        const BaselineResult b =
            runBaseline(tasks, ansatz, proto_b, quickConfig(budget, 60));
        if (budget < (1ull << 62)) {
            EXPECT_GE(a.totalShots, budget);
            EXPECT_LT(a.rounds, 60);
        }
        ASSERT_EQ(a.outcomes.size(), 1u);
        expectBaselinesBitIdentical(a, b);
    }
}

TEST(Baseline, RoundFanOutIsInvariantToPoolSize)
{
    // The tasks of a round step through one pool fan-out; the result
    // at 2 and 4 lanes equals the inline 1-lane run bit for bit, both
    // when the budget ends the run and when the iteration cap does.
    const auto tasks = tfimTasks(4, 4);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(4, 2, 0);
    const Spsa proto(SpsaConfig{}, 9);
    for (const std::uint64_t budget : {4'000'000ull, 1ull << 62}) {
        const BaselineConfig cfg = quickConfig(budget, 40);
        BaselineResult reference;
        {
            PoolSizeGuard one_lane(1);
            reference = runBaseline(tasks, ansatz, proto, cfg);
        }
        if (budget < (1ull << 62)) {
            EXPECT_LT(reference.rounds, 40);
        }
        for (const std::size_t lanes : {2u, 4u}) {
            SCOPED_TRACE(lanes);
            PoolSizeGuard guard(lanes);
            expectBaselinesBitIdentical(
                reference, runBaseline(tasks, ansatz, proto, cfg));
        }
    }
}

} // namespace
} // namespace treevqa
