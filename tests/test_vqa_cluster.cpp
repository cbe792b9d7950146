/**
 * @file
 * Tests for the VQA cluster (Algorithm 2): stepping, loss windows,
 * split triggers, spectral partitioning and state save/load.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "circuit/hardware_efficient.h"
#include "cluster/similarity.h"
#include "core/vqa_cluster.h"
#include "ham/spin_chains.h"
#include "opt/spsa.h"

#include "pool_size_guard.h"

namespace treevqa {
namespace {

std::unique_ptr<VqaCluster>
makeCluster(const std::vector<PauliSum> &fam, const ClusterConfig &ccfg,
            bool noise = false, std::uint64_t seed = 1)
{
    const int n = fam.front().numQubits();
    const Ansatz ansatz = makeHardwareEfficientAnsatz(n, 2, 0);
    EngineConfig engine;
    engine.injectShotNoise = noise;
    std::vector<std::size_t> indices(fam.size());
    for (std::size_t i = 0; i < fam.size(); ++i)
        indices[i] = i;
    auto opt = std::make_unique<Spsa>(SpsaConfig{}, seed);
    return std::make_unique<VqaCluster>(
        0, 1, -1, indices, fam, ansatz, engine, ccfg, std::move(opt),
        std::vector<double>(ansatz.numParams(), 0.0), Rng(seed));
}

TEST(VqaCluster, StepChargesShotsAndRecordsLoss)
{
    const auto fam = tfimFamily(4, 0.5, 1.5, 4);
    ClusterConfig ccfg;
    auto cluster = makeCluster(fam, ccfg);

    ShotLedger ledger;
    EXPECT_TRUE(std::isnan(cluster->lastLoss()));
    cluster->step(ledger);
    EXPECT_FALSE(std::isnan(cluster->lastLoss()));
    // SPSA: 2 evaluations x superset terms x 4096.
    EXPECT_EQ(ledger.total(),
              2ull * cluster->objective().evalCost());
    EXPECT_EQ(cluster->iterations(), 1);
}

TEST(VqaCluster, LossDecreasesOverWarmup)
{
    const auto fam = tfimFamily(4, 0.9, 1.1, 3);
    ClusterConfig ccfg;
    ccfg.warmupIterations = 1000; // never split in this test
    auto cluster = makeCluster(fam, ccfg);

    ShotLedger ledger;
    double first = 0.0, last = 0.0;
    for (int i = 0; i < 60; ++i) {
        cluster->step(ledger);
        if (i == 4)
            first = cluster->lastLoss();
    }
    last = cluster->lastLoss();
    EXPECT_LT(last, first);
}

TEST(VqaCluster, NoSplitDuringWarmup)
{
    const auto fam = tfimFamily(3, 0.5, 1.5, 3);
    ClusterConfig ccfg;
    ccfg.warmupIterations = 50;
    auto cluster = makeCluster(fam, ccfg);
    ShotLedger ledger;
    for (int i = 0; i < 49; ++i)
        EXPECT_EQ(cluster->step(ledger), VqaCluster::Status::Running);
}

TEST(VqaCluster, StalledOptimizationRequestsSplit)
{
    // Zero learning rate: the loss window is flat, the relative slope
    // falls below eps_split and a split must be requested.
    const auto fam = tfimFamily(3, 0.5, 1.5, 3);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(3, 2, 0);
    EngineConfig engine;
    engine.injectShotNoise = false;
    ClusterConfig ccfg;
    ccfg.warmupIterations = 5;
    ccfg.windowSize = 6;
    // A frozen optimizer still jitters the loss through its +/- c
    // perturbations; a generous stall threshold makes the flat window
    // unambiguous.
    ccfg.epsSplit = 0.05;
    SpsaConfig frozen;
    frozen.a = 0.0; // no movement
    frozen.c = 0.01;
    VqaCluster cluster(
        0, 1, -1, {0, 1, 2}, fam, ansatz, engine, ccfg,
        std::make_unique<Spsa>(frozen, 3),
        std::vector<double>(ansatz.numParams(), 0.1), Rng(3));

    ShotLedger ledger;
    VqaCluster::Status status = VqaCluster::Status::Running;
    for (int i = 0; i < 30; ++i) {
        status = cluster.step(ledger);
        if (status == VqaCluster::Status::SplitRequested)
            break;
    }
    EXPECT_EQ(status, VqaCluster::Status::SplitRequested);
    EXPECT_LT(std::fabs(cluster.mixedSlope()),
              ccfg.epsSplit + 1e-12);
}

TEST(VqaCluster, IndividualSlopesReported)
{
    const auto fam = tfimFamily(3, 0.8, 1.2, 4);
    ClusterConfig ccfg;
    ccfg.warmupIterations = 1000;
    auto cluster = makeCluster(fam, ccfg);
    ShotLedger ledger;
    for (int i = 0; i < 20; ++i)
        cluster->step(ledger);
    const auto slopes = cluster->individualSlopes();
    EXPECT_EQ(slopes.size(), fam.size());
}

TEST(VqaCluster, PartitionSeparatesDissimilarGroups)
{
    // Family with two far-apart parameter groups: the split must put
    // each group in its own child.
    std::vector<PauliSum> fam;
    for (double h : {0.10, 0.12, 0.14})
        fam.push_back(transverseFieldIsing(3, 1.0, h));
    for (double h : {2.50, 2.52, 2.54})
        fam.push_back(transverseFieldIsing(3, 1.0, h));

    ClusterConfig ccfg;
    auto cluster = makeCluster(fam, ccfg);
    const Matrix sim = similarityMatrix(fam);
    Rng rng(7);
    const auto [left, right] = cluster->partitionMembers(sim, rng);
    EXPECT_FALSE(left.empty());
    EXPECT_FALSE(right.empty());
    EXPECT_EQ(left.size() + right.size(), fam.size());
    // Contiguity of the two halves.
    const auto in_left = [&](std::size_t idx) {
        for (std::size_t x : left)
            if (x == idx)
                return true;
        return false;
    };
    EXPECT_EQ(in_left(0), in_left(1));
    EXPECT_EQ(in_left(1), in_left(2));
    EXPECT_EQ(in_left(3), in_left(4));
    EXPECT_NE(in_left(0), in_left(3));
}

TEST(VqaCluster, RearmMonitorSuppressesTriggers)
{
    const auto fam = tfimFamily(3, 0.5, 1.5, 2);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(3, 2, 0);
    EngineConfig engine;
    engine.injectShotNoise = false;
    ClusterConfig ccfg;
    ccfg.warmupIterations = 2;
    ccfg.windowSize = 4;
    ccfg.postSplitGrace = 50;
    ccfg.epsSplit = 0.05;
    SpsaConfig frozen;
    frozen.a = 0.0;
    frozen.c = 0.01;
    VqaCluster cluster(
        0, 1, -1, {0, 1}, fam, ansatz, engine, ccfg,
        std::make_unique<Spsa>(frozen, 3),
        std::vector<double>(ansatz.numParams(), 0.1), Rng(3));

    ShotLedger ledger;
    // Reach a split request, re-arm, then verify the grace period.
    VqaCluster::Status status = VqaCluster::Status::Running;
    for (int i = 0; i < 20; ++i)
        status = cluster.step(ledger);
    ASSERT_EQ(status, VqaCluster::Status::SplitRequested);
    cluster.rearmMonitor();
    for (int i = 0; i < 30; ++i)
        EXPECT_EQ(cluster.step(ledger), VqaCluster::Status::Running);
}

TEST(VqaCluster, ExactTaskEnergiesMatchObjective)
{
    const auto fam = tfimFamily(4, 0.7, 1.3, 3);
    ClusterConfig ccfg;
    auto cluster = makeCluster(fam, ccfg);
    ShotLedger ledger;
    for (int i = 0; i < 5; ++i)
        cluster->step(ledger);
    const auto energies = cluster->exactTaskEnergies();
    const auto reference =
        cluster->objective().exactTaskEnergies(cluster->params());
    ASSERT_EQ(energies.size(), reference.size());
    for (std::size_t i = 0; i < energies.size(); ++i)
        EXPECT_DOUBLE_EQ(energies[i], reference[i]);
}

TEST(VqaCluster, OverrideParamsResetsState)
{
    const auto fam = tfimFamily(3, 0.8, 1.2, 2);
    ClusterConfig ccfg;
    auto cluster = makeCluster(fam, ccfg);
    ShotLedger ledger;
    for (int i = 0; i < 3; ++i)
        cluster->step(ledger);
    std::vector<double> fresh(cluster->params().size(), 0.5);
    cluster->overrideParams(fresh);
    EXPECT_EQ(cluster->params(), fresh);
}

/** One step's observable outcome, compared bit for bit. */
struct StepRecord
{
    VqaCluster::Status status;
    std::uint64_t lossBits;
    std::vector<double> params;
    std::uint64_t shots;

    bool operator==(const StepRecord &) const = default;
};

/** Step once, re-arming on a split request as the tree does for a
 * lone task. */
StepRecord
stepAndRearm(VqaCluster &cluster, ShotLedger &ledger)
{
    const std::uint64_t before = ledger.total();
    const VqaCluster::Status status = cluster.step(ledger);
    if (status == VqaCluster::Status::SplitRequested)
        cluster.rearmMonitor();
    return {status, std::bit_cast<std::uint64_t>(cluster.lastLoss()),
            cluster.params(), ledger.total() - before};
}

TEST(VqaCluster, SavedStateResumesBitIdentically)
{
    // Short warm-up, window and grace with a loose stall threshold, so
    // split requests recur every few steps. The state is saved mid-
    // grace after a re-arm: both windows hold part of a window and the
    // monitor hold is set.
    const auto fam = tfimFamily(4, 0.5, 1.5, 3);
    ClusterConfig ccfg;
    ccfg.warmupIterations = 4;
    ccfg.windowSize = 4;
    ccfg.postSplitGrace = 2;
    ccfg.epsSplit = 10.0;

    std::vector<StepRecord> first_lane_run;
    for (const std::size_t lanes : {1u, 4u}) {
        SCOPED_TRACE(lanes);
        PoolSizeGuard guard(lanes);
        auto original = makeCluster(fam, ccfg, true, 5);
        ShotLedger warmup;
        for (int i = 0; i < 7; ++i)
            stepAndRearm(*original, warmup);

        auto restored = makeCluster(fam, ccfg, true, 5);
        restored->loadState(
            JsonValue::parse(original->saveState().dump()));
        EXPECT_EQ(restored->iterations(), 7);
        EXPECT_EQ(restored->params(), original->params());

        ShotLedger ledger_a, ledger_b;
        std::vector<StepRecord> run;
        int splits = 0;
        for (int i = 0; i < 20; ++i) {
            const StepRecord a = stepAndRearm(*original, ledger_a);
            const StepRecord b = stepAndRearm(*restored, ledger_b);
            ASSERT_EQ(a, b) << "step " << i;
            splits += a.status == VqaCluster::Status::SplitRequested;
            run.push_back(a);
        }
        EXPECT_GE(splits, 2);
        EXPECT_EQ(ledger_a.total(), ledger_b.total());
        if (first_lane_run.empty())
            first_lane_run = run;
        else
            EXPECT_TRUE(run == first_lane_run);
    }
}

TEST(VqaCluster, LoadStateRejectsAMismatchedCluster)
{
    ClusterConfig ccfg;
    auto three = makeCluster(tfimFamily(4, 0.5, 1.5, 3), ccfg);
    auto two = makeCluster(tfimFamily(4, 0.5, 1.5, 2), ccfg);
    auto smaller = makeCluster(tfimFamily(3, 0.5, 1.5, 3), ccfg);
    ShotLedger ledger;
    three->step(ledger);
    const JsonValue state = three->saveState();
    EXPECT_THROW(two->loadState(state), std::runtime_error);
    EXPECT_THROW(smaller->loadState(state), std::runtime_error);
}

} // namespace
} // namespace treevqa
