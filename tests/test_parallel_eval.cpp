/**
 * @file
 * Tests for the batched, thread-parallel evaluation engine: thread-pool
 * invariants, batched normal sampling, evaluateBatch bit-equivalence
 * across thread counts, threaded expectations vs the naive reference,
 * batch-vs-serial optimizer equivalence, and pool-size invariance of a
 * full TreeVQA run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "circuit/hardware_efficient.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/objective.h"
#include "core/sim_backend.h"
#include "core/tree_controller.h"
#include "ham/spin_chains.h"
#include "opt/cobyla.h"
#include "opt/implicit_filtering.h"
#include "opt/nelder_mead.h"
#include "opt/spsa.h"
#include "sim/expectation.h"
#include "sim/reference_kernels.h"

#include "pool_size_guard.h"

namespace treevqa {
namespace {

TEST(ThreadPool, RunCoversEveryIndexExactlyOnce)
{
    PoolSizeGuard guard(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h = 0;
    ThreadPool::global().run(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, NestedRunExecutesInline)
{
    PoolSizeGuard guard(4);
    std::atomic<int> total{0};
    ThreadPool::global().run(8, [&](std::size_t) {
        // A nested run must not deadlock and must still cover its
        // index space.
        ThreadPool::global().run(16,
                                 [&](std::size_t) { ++total; });
    });
    EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPool, SingleLaneRunsInSubmissionOrder)
{
    PoolSizeGuard guard(1);
    std::vector<std::size_t> order;
    ThreadPool::global().run(64, [&](std::size_t i) {
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 64u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Rng, NormalVectorIsDeterministicAndWellDistributed)
{
    Rng a(123), b(123);
    const std::vector<double> va = a.normalVector(10001);
    const std::vector<double> vb = b.normalVector(10001);
    EXPECT_EQ(va, vb);

    double mean = 0.0, var = 0.0;
    for (double x : va)
        mean += x;
    mean /= static_cast<double>(va.size());
    for (double x : va)
        var += (x - mean) * (x - mean);
    var /= static_cast<double>(va.size());
    EXPECT_NEAR(mean, 0.0, 0.03);
    EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, NormalVectorOddAndChunkBoundaryLengths)
{
    // Lengths around the internal chunk size and odd tails must all
    // produce exactly n finite values.
    for (std::size_t n : {1u, 2u, 3u, 255u, 256u, 257u, 511u, 513u}) {
        Rng rng(n);
        const std::vector<double> v = rng.normalVector(n);
        ASSERT_EQ(v.size(), n);
        for (double x : v)
            EXPECT_TRUE(std::isfinite(x));
    }
}

/** A noisy n-qubit, 5-task TFIM cluster objective. */
ClusterObjective
makeObjective(int n = 6)
{
    return ClusterObjective(tfimFamily(n, 0.5, 1.5, 5),
                            makeHardwareEfficientAnsatz(n, 2, 0b010101),
                            EngineConfig{});
}

std::vector<std::vector<double>>
makeThetas(int num_params, std::size_t batch, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> thetas(batch);
    for (auto &theta : thetas) {
        theta.resize(num_params);
        for (auto &t : theta)
            t = rng.uniform(-2, 2);
    }
    return thetas;
}

TEST(EvaluateBatch, BitIdenticalAcrossThreadCounts)
{
    // 17 qubits span several amplitude blocks, so the expectation pass
    // reduces multi-block partials. The gate kernels stay serial here:
    // a one-lane pool never forks, and wider pools run the probes as
    // pool tasks (Statevector.ResultsIndependentOfThreadSettings covers
    // the parallel kernel loop).
    for (const auto &[n, batch] :
         {std::pair<int, std::size_t>{6, 8}, {17, 3}}) {
        const ClusterObjective obj = makeObjective(n);
        const auto thetas =
            makeThetas(obj.ansatz().numParams(), batch, 17);

        std::vector<std::vector<ClusterEvaluation>> runs;
        for (std::size_t threads : {1u, 2u, 4u, 8u}) {
            PoolSizeGuard guard(threads);
            Rng rng(99);
            runs.push_back(obj.evaluateBatch(thetas, rng));
        }
        for (std::size_t r = 1; r < runs.size(); ++r) {
            ASSERT_EQ(runs[r].size(), runs[0].size());
            for (std::size_t p = 0; p < runs[0].size(); ++p) {
                EXPECT_EQ(runs[r][p].mixedEnergy, runs[0][p].mixedEnergy)
                    << n << " qubits, probe " << p;
                EXPECT_EQ(runs[r][p].taskEnergies,
                          runs[0][p].taskEnergies);
                EXPECT_EQ(runs[r][p].shotsUsed, runs[0][p].shotsUsed);
            }
        }
    }
}

/** The probe shapes optimizers batch, around one iterate x. */
std::vector<std::pair<const char *, std::vector<std::vector<double>>>>
probeSets(const std::vector<double> &x, std::uint64_t seed)
{
    const std::size_t n = x.size();
    Rng rng(seed);
    const std::vector<double> delta = rng.rademacherVector(n);

    // SPSA: one +/- pair perturbing every parameter.
    std::vector<std::vector<double>> spsa(2, x);
    for (std::size_t i = 0; i < n; ++i) {
        spsa[0][i] += 0.1 * delta[i];
        spsa[1][i] -= 0.1 * delta[i];
    }
    // Simplex build: the vertex, an exact duplicate of it, and one
    // single-coordinate step per parameter.
    std::vector<std::vector<double>> simplex(2, x);
    for (std::size_t i = 0; i < n; ++i) {
        simplex.push_back(x);
        simplex.back()[i] += 0.25;
    }
    // Implicit-filtering stencil: x +/- h e_i for every coordinate.
    std::vector<std::vector<double>> stencil;
    for (std::size_t i = 0; i < n; ++i) {
        stencil.push_back(x);
        stencil.back()[i] += 0.05;
        stencil.push_back(x);
        stencil.back()[i] -= 0.05;
    }
    return {{"spsa pair", std::move(spsa)},
            {"simplex build", std::move(simplex)},
            {"stencil", std::move(stencil)}};
}

class EvaluateBatchEngines
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EvaluateBatchEngines, ReproducesSerialEvaluateWithProbeStreams)
{
    // The documented serial reference: probe i of a batch with stream
    // base `b` evaluates exactly like evaluate(thetas[i], probeRng(b, i)),
    // for every engine, probe shape and pool size. Four qubits keep
    // the propagation engine's ~450 evaluations cheap.
    EngineConfig config;
    config.backendName = GetParam();
    const ClusterObjective obj(tfimFamily(4, 0.5, 1.5, 3),
                               makeHardwareEfficientAnsatz(4, 2, 0b0101),
                               config);
    const auto x = makeThetas(obj.ansatz().numParams(), 1, 31).front();

    for (const auto &[shape, thetas] : probeSets(x, 37)) {
        for (const std::size_t threads : {1u, 4u}) {
            PoolSizeGuard guard(threads);
            Rng rng(7);
            const auto batch = obj.evaluateBatch(thetas, rng);

            Rng serial_rng(7);
            const std::uint64_t base = serial_rng.nextU64();
            ASSERT_EQ(batch.size(), thetas.size());
            for (std::size_t i = 0; i < thetas.size(); ++i) {
                Rng probe = ClusterObjective::probeRng(base, i);
                const ClusterEvaluation ev = obj.evaluate(thetas[i], probe);
                EXPECT_EQ(batch[i].mixedEnergy, ev.mixedEnergy)
                    << shape << ", probe " << i << ", " << threads
                    << " lanes";
                EXPECT_EQ(batch[i].taskEnergies, ev.taskEnergies)
                    << shape << ", probe " << i;
                EXPECT_EQ(batch[i].shotsUsed, ev.shotsUsed);
            }
            // Both paths consumed the caller stream identically.
            EXPECT_EQ(rng.nextU64(), serial_rng.nextU64());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EvaluateBatchEngines,
    ::testing::ValuesIn(simBackendNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(EvaluateBatch, CallerStreamAdvanceIndependentOfBatchSize)
{
    const ClusterObjective obj = makeObjective();
    Rng a(5), b(5);
    (void)obj.evaluateBatch(
        makeThetas(obj.ansatz().numParams(), 1, 1), a);
    (void)obj.evaluateBatch(
        makeThetas(obj.ansatz().numParams(), 8, 2), b);
    EXPECT_EQ(a.nextU64(), b.nextU64());
}

class ThreadedExpectationSweep
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ThreadedExpectationSweep, MatchesReferenceKernels)
{
    // Threaded perStringExpectations vs the naive reference at 1e-12
    // on 12-16 qubit states, for 1/2/4/8 pool lanes.
    PoolSizeGuard guard(GetParam());
    for (int n : {12, 14, 16}) {
        Rng rng(1000 + n);
        Statevector s(n);
        for (int g = 0; g < 4 * n; ++g) {
            const int q = static_cast<int>(rng.uniformInt(n));
            s.applyRy(q, rng.uniform(-3, 3));
            s.applyCx(q, (q + 1) % n);
        }
        std::vector<PauliString> strings;
        const char ops[4] = {'I', 'X', 'Y', 'Z'};
        for (int k = 0; k < 60; ++k) {
            PauliString p(n);
            for (int q = 0; q < n; ++q)
                p.setOp(q, ops[rng.uniformInt(4)]);
            strings.push_back(p);
        }
        const auto fast = perStringExpectations(s, strings);
        const auto ref = refPerStringExpectations(s, strings);
        ASSERT_EQ(fast.size(), ref.size());
        for (std::size_t k = 0; k < fast.size(); ++k)
            EXPECT_NEAR(fast[k], ref[k], 1e-12)
                << n << " qubits, string " << k;
    }
}

INSTANTIATE_TEST_SUITE_P(Lanes, ThreadedExpectationSweep,
                         ::testing::Values(1u, 2u, 4u, 8u));

/** Quadratic with minimum at (1, -2, 1, -2, ...). */
double
quadratic(const std::vector<double> &x)
{
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double target = (i % 2 == 0) ? 1.0 : -2.0;
        s += (x[i] - target) * (x[i] - target);
    }
    return s;
}

template <typename Opt>
void
expectBatchMatchesSerial(Opt make_a, Opt make_b)
{
    auto a = make_a();
    auto b = make_b();
    a->reset(std::vector<double>(5, 0.0));
    b->reset(std::vector<double>(5, 0.0));

    int serial_evals = 0;
    const Objective serial = [&](const std::vector<double> &theta) {
        ++serial_evals;
        return quadratic(theta);
    };
    int batch_calls = 0;
    int batch_evals = 0;
    std::size_t max_batch = 0;
    const BatchObjective batched =
        [&](const std::vector<std::vector<double>> &thetas) {
            ++batch_calls;
            max_batch = std::max(max_batch, thetas.size());
            std::vector<double> losses;
            for (const auto &t : thetas) {
                ++batch_evals;
                losses.push_back(quadratic(t));
            }
            return losses;
        };

    for (int i = 0; i < 60; ++i) {
        const double la = a->step(serial);
        const double lb = b->stepBatch(batched);
        ASSERT_EQ(la, lb) << "iteration " << i;
        ASSERT_EQ(a->params(), b->params()) << "iteration " << i;
        ASSERT_EQ(serial_evals, batch_evals) << "iteration " << i;
    }
    EXPECT_GT(batch_calls, 0);
    // The per-iterate probe sets actually go out batched: the largest
    // batch is the 5-dimensional problem's simplex/stencil/pair.
    EXPECT_GE(max_batch, 2u);
}

TEST(BatchOptimizers, SpsaBatchPathMatchesSerial)
{
    using Maker = std::function<std::unique_ptr<IterativeOptimizer>()>;
    const Maker make = [] {
        return std::make_unique<Spsa>(SpsaConfig{}, 21);
    };
    expectBatchMatchesSerial<Maker>(make, make);
}

TEST(BatchOptimizers, NelderMeadBatchPathMatchesSerial)
{
    using Maker = std::function<std::unique_ptr<IterativeOptimizer>()>;
    const Maker make = [] {
        return std::make_unique<NelderMead>(NelderMeadConfig{});
    };
    expectBatchMatchesSerial<Maker>(make, make);
}

TEST(BatchOptimizers, CobylaBatchPathMatchesSerial)
{
    using Maker = std::function<std::unique_ptr<IterativeOptimizer>()>;
    const Maker make = [] {
        return std::make_unique<Cobyla>(CobylaConfig{});
    };
    expectBatchMatchesSerial<Maker>(make, make);
}

TEST(BatchOptimizers, ImplicitFilteringBatchPathMatchesSerial)
{
    using Maker = std::function<std::unique_ptr<IterativeOptimizer>()>;
    const Maker make = [] {
        return std::make_unique<ImplicitFiltering>(
            ImplicitFilteringConfig{});
    };
    expectBatchMatchesSerial<Maker>(make, make);
}

TEST(BatchOptimizers, SpsaSubmitsThePairAsOneBatch)
{
    Spsa opt(SpsaConfig{}, 3);
    opt.reset(std::vector<double>(4, 0.0));
    std::vector<std::size_t> batch_sizes;
    const BatchObjective f =
        [&](const std::vector<std::vector<double>> &thetas) {
            batch_sizes.push_back(thetas.size());
            std::vector<double> losses;
            for (const auto &t : thetas)
                losses.push_back(quadratic(t));
            return losses;
        };
    opt.stepBatch(f);
    ASSERT_EQ(batch_sizes.size(), 1u);
    EXPECT_EQ(batch_sizes[0], 2u);
}

TEST(BatchOptimizers, SimplexBuildsGoOutAsOneBatch)
{
    for (const bool nelder : {true, false}) {
        std::unique_ptr<IterativeOptimizer> opt;
        if (nelder)
            opt = std::make_unique<NelderMead>(NelderMeadConfig{});
        else
            opt = std::make_unique<Cobyla>(CobylaConfig{});
        opt->reset(std::vector<double>(6, 0.0));
        std::vector<std::size_t> batch_sizes;
        const BatchObjective f =
            [&](const std::vector<std::vector<double>> &thetas) {
                batch_sizes.push_back(thetas.size());
                std::vector<double> losses;
                for (const auto &t : thetas)
                    losses.push_back(quadratic(t));
                return losses;
            };
        opt->stepBatch(f);
        ASSERT_EQ(batch_sizes.size(), 1u);
        EXPECT_EQ(batch_sizes[0], 7u); // n + 1 vertices, one batch
    }
}

TEST(TreeController, RunIsInvariantToPoolSize)
{
    // The full pipeline — cluster rounds fanned out over the pool,
    // batched probe evaluation, threaded expectations — must give
    // bit-identical results at any pool size, both when the round cap
    // ends the run and when the shot budget does. The budget is
    // checked only before a round, so a binding budget ends the run
    // at the same round boundary at every pool size.
    const auto fam = tfimFamily(4, 0.5, 1.5, 4);
    auto tasks = makeTasks("tfim", fam, 0);
    solveGroundEnergies(tasks);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(4, 2, 0);
    Spsa proto(SpsaConfig{}, 6);

    TreeVqaConfig cfg;
    cfg.maxRounds = 60;
    cfg.seed = 11;
    // A round of every task as its own cluster, each an SPSA pair.
    const std::uint64_t max_round_shots = tasks.size() * 2
        * cfg.engine.shotsPerTerm * tasks[0].hamiltonian.numMeasuredTerms();

    // Unlimited, then binding after the run's one split (near round
    // 51 of 60), inside a two-cluster round: the first cluster's step
    // crosses the budget, and the second still runs.
    for (const std::uint64_t budget : {1ull << 62, 3'650'000ull}) {
        cfg.shotBudget = budget;
        std::vector<TreeVqaResult> results;
        for (const std::size_t threads : {1u, 2u, 4u}) {
            PoolSizeGuard guard(threads);
            TreeController controller(tasks, ansatz, proto, cfg);
            results.push_back(controller.run());
        }
        const TreeVqaResult ref = results[0];
        EXPECT_GE(ref.splitCount, 1) << "budget " << budget;
        if (budget < (1ull << 62)) {
            EXPECT_LT(ref.rounds, cfg.maxRounds);
            EXPECT_GE(ref.totalShots, budget);
            EXPECT_LT(ref.totalShots, budget + max_round_shots);
            // Every cluster finished the last round: the run equals
            // one capped at the same round count without a budget.
            TreeVqaConfig capped = cfg;
            capped.shotBudget = 1ull << 62;
            capped.maxRounds = ref.rounds;
            results.push_back(
                TreeController(tasks, ansatz, proto, capped).run());
        } else {
            EXPECT_EQ(ref.rounds, cfg.maxRounds);
        }
        for (std::size_t r = 1; r < results.size(); ++r) {
            const TreeVqaResult &res = results[r];
            const std::string what = "budget " + std::to_string(budget)
                + ", run " + std::to_string(r);
            EXPECT_EQ(res.totalShots, ref.totalShots) << what;
            EXPECT_EQ(res.rounds, ref.rounds) << what;
            EXPECT_EQ(res.splitCount, ref.splitCount) << what;
            ASSERT_EQ(res.outcomes.size(), ref.outcomes.size()) << what;
            for (std::size_t i = 0; i < ref.outcomes.size(); ++i)
                EXPECT_EQ(std::bit_cast<std::uint64_t>(
                              res.outcomes[i].bestEnergy),
                          std::bit_cast<std::uint64_t>(
                              ref.outcomes[i].bestEnergy))
                    << what << ", task " << i;
        }
    }
}

TEST(ShotLedger, ConcurrentChargesSumExactly)
{
    PoolSizeGuard guard(4);
    ShotLedger ledger;
    ThreadPool::global().run(256, [&](std::size_t i) {
        ledger.charge(i + 1);
    });
    EXPECT_EQ(ledger.total(), 256ull * 257ull / 2ull);
}

} // namespace
} // namespace treevqa
