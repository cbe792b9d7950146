/**
 * @file
 * Tests for the cluster objective: mixed-Hamiltonian construction,
 * shot accounting, recombination invariants, backend agreement.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/hardware_efficient.h"
#include "core/objective.h"
#include "ham/spin_chains.h"
#include "sim/expectation.h"

namespace treevqa {
namespace {

EngineConfig
noiselessExact()
{
    EngineConfig cfg;
    cfg.injectShotNoise = false;
    return cfg;
}

TEST(Objective, MixedEnergyIsMeanOfTaskEnergies)
{
    // E_mixed(theta) == mean_i E_i(theta) exactly (linearity of the
    // padded average), for any theta.
    const auto fam = tfimFamily(4, 0.4, 1.6, 5);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(4, 2, 0b0101);
    ClusterObjective obj(fam, ansatz, noiselessExact());

    Rng rng(1);
    std::vector<double> theta(ansatz.numParams());
    for (auto &t : theta)
        t = rng.uniform(-2, 2);

    const ClusterEvaluation ev = obj.evaluate(theta, rng);
    double mean = 0.0;
    for (double e : ev.taskEnergies)
        mean += e / static_cast<double>(ev.taskEnergies.size());
    EXPECT_NEAR(ev.mixedEnergy, mean, 1e-10);
}

TEST(Objective, EvalCostUsesSupersetSize)
{
    // TFIM family shares its term structure: the superset equals one
    // task's term count, so the cluster evaluation costs the same as a
    // single-task evaluation — TreeVQA's core saving.
    const auto fam = tfimFamily(5, 0.5, 1.5, 8);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(5, 2, 0);
    ClusterObjective obj(fam, ansatz, EngineConfig{});
    EXPECT_EQ(obj.evalCost(),
              kDefaultShotsPerTerm * fam[0].numMeasuredTerms());
}

TEST(Objective, ExactTaskEnergyMatchesEvaluateNoiseless)
{
    // All three exact energies recombine the same per-term pass, so
    // they agree bitwise.
    for (const auto &fam :
         {xxzFamily(4, 0.5, 1.5, 3), tfimFamily(6, 0.5, 1.5, 4)}) {
        const int n = fam.front().numQubits();
        const Ansatz ansatz = makeHardwareEfficientAnsatz(n, 2, 0b0011);
        ClusterObjective obj(fam, ansatz, noiselessExact());
        Rng rng(2);
        std::vector<double> theta(ansatz.numParams());
        for (auto &t : theta)
            t = rng.uniform(-1, 1);
        const ClusterEvaluation ev = obj.evaluate(theta, rng);
        const auto all = obj.exactTaskEnergies(theta);
        for (std::size_t i = 0; i < fam.size(); ++i) {
            EXPECT_EQ(obj.exactTaskEnergy(i, theta), all[i])
                << n << "q task " << i;
            EXPECT_EQ(ev.taskEnergies[i], all[i]) << n << "q task " << i;
        }
    }
}

TEST(Objective, ShotNoiseIsUnbiasedOnAverage)
{
    const auto fam = tfimFamily(3, 0.8, 1.2, 2);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(3, 1, 0);
    EngineConfig noisy;
    noisy.shotsPerTerm = 256;
    ClusterObjective obj(fam, ansatz, noisy);

    ClusterObjective exact(fam, ansatz, noiselessExact());
    Rng rng(3);
    std::vector<double> theta(ansatz.numParams());
    for (auto &t : theta)
        t = rng.uniform(-1, 1);
    const double truth = exact.evaluate(theta, rng).mixedEnergy;

    double sum = 0.0;
    const int trials = 3000;
    for (int i = 0; i < trials; ++i)
        sum += obj.evaluate(theta, rng).mixedEnergy;
    EXPECT_NEAR(sum / trials, truth, 0.02);
}

TEST(Objective, BackendsAgreeNoiselessly)
{
    const auto fam = tfimFamily(4, 0.5, 1.5, 3);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(4, 2, 0b0011);

    EngineConfig sv = noiselessExact();
    EngineConfig pp = noiselessExact();
    pp.backendName = kPauliPropagationBackendName;
    pp.propConfig.maxWeight = 64;
    pp.propConfig.coefThreshold = 0.0;

    ClusterObjective obj_sv(fam, ansatz, sv);
    ClusterObjective obj_pp(fam, ansatz, pp);

    Rng rng(4);
    std::vector<double> theta(ansatz.numParams());
    for (auto &t : theta)
        t = rng.uniform(-1, 1);

    const ClusterEvaluation ev_sv = obj_sv.evaluate(theta, rng);
    const ClusterEvaluation ev_pp = obj_pp.evaluate(theta, rng);
    EXPECT_NEAR(ev_sv.mixedEnergy, ev_pp.mixedEnergy, 1e-8);
    for (std::size_t i = 0; i < fam.size(); ++i)
        EXPECT_NEAR(ev_sv.taskEnergies[i], ev_pp.taskEnergies[i], 1e-8);
    EXPECT_EQ(ev_sv.shotsUsed, ev_pp.shotsUsed);
}

TEST(Objective, NoiseDampsTowardTrace)
{
    // Global depolarizing pulls the energy toward Tr(H)/2^n.
    const auto fam = tfimFamily(4, 1.0, 1.0, 1);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(4, 2, 0);
    EngineConfig clean = noiselessExact();
    EngineConfig noisy = noiselessExact();
    noisy.noise = NoiseModel(0.9, 0.95, "heavy");

    ClusterObjective obj_clean(fam, ansatz, clean);
    ClusterObjective obj_noisy(fam, ansatz, noisy);
    Rng rng(5);
    std::vector<double> theta(ansatz.numParams());
    for (auto &t : theta)
        t = rng.uniform(-1, 1);

    const double e_clean = obj_clean.evaluate(theta, rng).mixedEnergy;
    const double e_noisy = obj_noisy.evaluate(theta, rng).mixedEnergy;
    const double trace = fam[0].normalizedTrace(); // 0 for TFIM
    EXPECT_LT(std::fabs(e_noisy - trace), std::fabs(e_clean - trace));
}

TEST(Objective, DeviceNoiseDampsEachTermByItsFactor)
{
    // Without shot noise, a noisy evaluation is the recombination of
    // the exact per-term values, each multiplied once by its damping
    // factor: bitwise, whatever the backend precomputes.
    const auto fam = xxzFamily(4, 0.5, 1.5, 3);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(4, 2, 0b0101);
    EngineConfig noisy = noiselessExact();
    noisy.noise = NoiseModel(0.97, 0.93, "test-device");
    ClusterObjective obj(fam, ansatz, noisy);
    Rng rng(8);
    std::vector<double> theta(ansatz.numParams());
    for (auto &t : theta)
        t = rng.uniform(-1, 1);

    const AlignedTerms aligned = alignTerms(fam);
    std::vector<double> values =
        perStringExpectations(ansatz.prepare(theta), aligned.strings);
    const int layers = ansatz.compiled()->entanglingLayers();
    for (std::size_t k = 0; k < values.size(); ++k)
        values[k] *= noisy.noise.dampingFactor(aligned.strings[k], layers);
    const ClusterEvaluation ev = obj.evaluate(theta, rng);
    for (std::size_t i = 0; i < fam.size(); ++i)
        EXPECT_EQ(ev.taskEnergies[i],
                  recombine(aligned.coefficients[i], values))
            << "task " << i;
}

TEST(Objective, ExactMixedEnergyConsistent)
{
    const auto fam = xxzFamily(3, 0.4, 1.2, 4);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(3, 1, 0);
    ClusterObjective obj(fam, ansatz, noiselessExact());
    Rng rng(6);
    std::vector<double> theta(ansatz.numParams());
    for (auto &t : theta)
        t = rng.uniform(-1, 1);
    const auto tasks = obj.exactTaskEnergies(theta);
    double mean = 0.0;
    for (double e : tasks)
        mean += e / static_cast<double>(tasks.size());
    EXPECT_NEAR(obj.exactMixedEnergy(theta), mean, 1e-10);
}

TEST(Objective, MixedHamiltonianIsHermitianAverage)
{
    PauliSum a(2), b(2);
    a.add(1.0, "ZI");
    b.add(2.0, "ZI");
    b.add(1.0, "XX");
    const Ansatz ansatz = makeHardwareEfficientAnsatz(2, 1, 0);
    ClusterObjective obj({a, b}, ansatz, noiselessExact());
    EXPECT_NEAR(
        obj.mixed().coefficientOf(PauliString::fromLabel("ZI")), 1.5,
        1e-12);
    EXPECT_NEAR(
        obj.mixed().coefficientOf(PauliString::fromLabel("XX")), 0.5,
        1e-12);
}

} // namespace
} // namespace treevqa
