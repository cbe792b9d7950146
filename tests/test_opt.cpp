/**
 * @file
 * Tests for the classical optimizers (SPSA, COBYLA, Nelder-Mead).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "opt/cobyla.h"
#include "opt/nelder_mead.h"
#include "opt/spsa.h"

namespace treevqa {
namespace {

/** Convex quadratic centered at (1, -2, 3, ...). */
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

TEST(Spsa, GainSequencesFollowSpall)
{
    SpsaConfig cfg;
    cfg.a = 0.2;
    cfg.c = 0.15;
    cfg.bigA = 10.0;
    Spsa opt(cfg, 1);
    opt.reset({0.0});
    EXPECT_NEAR(opt.currentLearningRate(),
                0.2 / std::pow(11.0, 0.602), 1e-12);
    EXPECT_NEAR(opt.currentPerturbation(), 0.15, 1e-12);
}

TEST(Spsa, ConvergesOnQuadratic)
{
    SpsaConfig cfg;
    cfg.a = 0.4;
    Spsa opt(cfg, 42);
    opt.reset(std::vector<double>(6, 0.0));
    double loss = 0.0;
    for (int i = 0; i < 400; ++i)
        loss = opt.step(quadratic);
    EXPECT_LT(loss, 0.3);
    EXPECT_LT(quadratic(opt.params()), 0.3);
}

TEST(Spsa, ConvergesUnderNoise)
{
    Rng noise(3);
    const Objective f = [&](const std::vector<double> &x) {
        return quadratic(x) + noise.normal(0.0, 0.1);
    };
    SpsaConfig cfg;
    cfg.a = 0.4;
    Spsa opt(cfg, 7);
    opt.reset(std::vector<double>(4, 0.0));
    for (int i = 0; i < 600; ++i)
        opt.step(f);
    EXPECT_LT(quadratic(opt.params()), 0.5);
}

TEST(Spsa, TwoEvalsPerIteration)
{
    Spsa opt(SpsaConfig{}, 1);
    opt.reset({0.0, 0.0});
    int calls = 0;
    const Objective f = [&](const std::vector<double> &x) {
        ++calls;
        return quadratic(x);
    };
    opt.step(f);
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(opt.iteration(), 1);
}

TEST(Spsa, DeterministicForSameSeed)
{
    Spsa a(SpsaConfig{}, 99), b(SpsaConfig{}, 99);
    a.reset({0.5, 0.5});
    b.reset({0.5, 0.5});
    for (int i = 0; i < 10; ++i) {
        a.step(quadratic);
        b.step(quadratic);
    }
    EXPECT_EQ(a.params(), b.params());
}

TEST(Spsa, StepClipBoundsUpdate)
{
    SpsaConfig cfg;
    cfg.maxStepNorm = 0.01;
    Spsa opt(cfg, 5);
    const std::vector<double> x0(8, 0.0);
    opt.reset(x0);
    // A steep objective would otherwise produce a huge step.
    const Objective steep = [](const std::vector<double> &x) {
        double s = 0.0;
        for (double xi : x)
            s += 1000.0 * xi;
        return s;
    };
    opt.step(steep);
    double norm = 0.0;
    for (std::size_t i = 0; i < x0.size(); ++i)
        norm += (opt.params()[i] - x0[i]) * (opt.params()[i] - x0[i]);
    EXPECT_LE(std::sqrt(norm), 0.01 + 1e-12);
}

TEST(Spsa, CloneConfigPreservesSettings)
{
    SpsaConfig cfg;
    cfg.a = 0.77;
    Spsa opt(cfg, 1);
    auto clone = opt.cloneConfig();
    EXPECT_EQ(clone->name(), "SPSA");
    auto *typed = dynamic_cast<Spsa *>(clone.get());
    ASSERT_NE(typed, nullptr);
    EXPECT_DOUBLE_EQ(typed->config().a, 0.77);
}

TEST(Cobyla, ConvergesOnQuadratic)
{
    Cobyla opt;
    opt.reset(std::vector<double>(5, 0.0));
    for (int i = 0; i < 300; ++i)
        opt.step(quadratic);
    EXPECT_LT(quadratic(opt.params()), 0.05);
}

TEST(Cobyla, FirstStepBuildsSimplex)
{
    Cobyla opt;
    opt.reset({0.0, 0.0, 0.0});
    int calls = 0;
    const Objective f = [&](const std::vector<double> &x) {
        ++calls;
        return quadratic(x);
    };
    opt.step(f);
    EXPECT_EQ(calls, 4); // n + 1 evaluations
    calls = 0;
    opt.step(f);
    EXPECT_LE(calls, 2); // steady state: ~1 evaluation
}

TEST(Cobyla, RhoShrinksOnFailure)
{
    // A flat objective gives no improvement: rho must shrink.
    Cobyla opt;
    opt.reset({0.0, 0.0});
    const Objective flat = [](const std::vector<double> &) {
        return 1.0;
    };
    const double rho0 = opt.rho();
    for (int i = 0; i < 20; ++i)
        opt.step(flat);
    EXPECT_LT(opt.rho(), rho0);
}

TEST(Cobyla, ConvergedFlagAtRhoEnd)
{
    CobylaConfig cfg;
    cfg.rhoBegin = 0.1;
    cfg.rhoEnd = 0.05;
    Cobyla opt(cfg);
    opt.reset({0.0});
    const Objective flat = [](const std::vector<double> &) {
        return 1.0;
    };
    for (int i = 0; i < 50 && !opt.converged(); ++i)
        opt.step(flat);
    EXPECT_TRUE(opt.converged());
}

TEST(Cobyla, HandlesAnisotropicValley)
{
    // Elongated quadratic: (10 x0)^2 + x1^2.
    const Objective valley = [](const std::vector<double> &x) {
        return 100.0 * x[0] * x[0] + x[1] * x[1];
    };
    Cobyla opt;
    opt.reset({0.5, 2.0});
    double best = valley({0.5, 2.0});
    for (int i = 0; i < 300; ++i)
        best = std::min(best, opt.step(valley));
    EXPECT_LT(best, 0.2);
}

TEST(NelderMead, ConvergesOnQuadratic)
{
    NelderMead opt;
    opt.reset(std::vector<double>(4, 0.0));
    double loss = 1e9;
    for (int i = 0; i < 400; ++i)
        loss = opt.step(quadratic);
    EXPECT_LT(loss, 1e-3);
}

TEST(NelderMead, ConvergesOnRosenbrockLike)
{
    const Objective rosen = [](const std::vector<double> &x) {
        const double a = 1.0 - x[0];
        const double b = x[1] - x[0] * x[0];
        return a * a + 20.0 * b * b;
    };
    NelderMead opt;
    opt.reset({-0.5, 0.5});
    double loss = 1e9;
    for (int i = 0; i < 800; ++i)
        loss = opt.step(rosen);
    EXPECT_LT(loss, 1e-2);
}

TEST(NelderMead, SimplexSpreadShrinks)
{
    NelderMead opt;
    opt.reset({3.0, 3.0});
    opt.step(quadratic); // build
    const double spread0 = opt.simplexSpread();
    for (int i = 0; i < 100; ++i)
        opt.step(quadratic);
    EXPECT_LT(opt.simplexSpread(), spread0);
}

TEST(Optimizers, CloneConfigGivesIndependentInstances)
{
    Cobyla opt;
    auto c1 = opt.cloneConfig();
    auto c2 = opt.cloneConfig();
    c1->reset({0.0});
    c2->reset({5.0});
    EXPECT_NE(c1->params()[0], c2->params()[0]);
}

/** Dimension sweep: SPSA cost per iteration is dimension-independent
 * (always 2 evaluations) while still making progress. */
class SpsaDimensionSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SpsaDimensionSweep, TwoEvalsRegardlessOfDimension)
{
    const std::size_t dim = GetParam();
    Spsa opt(SpsaConfig{}, 11);
    opt.reset(std::vector<double>(dim, 0.0));
    int calls = 0;
    const Objective f = [&](const std::vector<double> &x) {
        ++calls;
        return quadratic(x);
    };
    opt.step(f);
    EXPECT_EQ(calls, 2);
}

INSTANTIATE_TEST_SUITE_P(Dims, SpsaDimensionSweep,
                         ::testing::Values(1u, 4u, 16u, 64u, 256u));

} // namespace
} // namespace treevqa
