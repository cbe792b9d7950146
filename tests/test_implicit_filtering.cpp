/**
 * @file
 * Tests for the Implicit Filtering optimizer (the Section 9.2
 * extension) including its use inside TreeVQA.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/hardware_efficient.h"
#include "common/rng.h"
#include "core/tree_controller.h"
#include "ham/spin_chains.h"
#include "opt/implicit_filtering.h"

namespace treevqa {
namespace {

double
quadratic(const std::vector<double> &x)
{
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        s += (x[i] - 1.0) * (x[i] - 1.0);
    return s;
}

TEST(ImplicitFiltering, ConvergesOnQuadratic)
{
    ImplicitFiltering opt;
    opt.reset(std::vector<double>(4, 0.0));
    double loss = 1e18;
    for (int i = 0; i < 120; ++i)
        loss = opt.step(quadratic);
    EXPECT_LT(loss, 1e-3);
}

TEST(ImplicitFiltering, StencilShrinksOnNoiseFloor)
{
    // A noisy objective stalls descent at the noise scale: the stencil
    // must refine (the cluster-granularity signal of Section 9.2).
    Rng noise(1);
    const Objective f = [&](const std::vector<double> &x) {
        return quadratic(x) + noise.normal(0.0, 0.05);
    };
    ImplicitFiltering opt;
    opt.reset(std::vector<double>(3, 0.0));
    const double h0 = opt.stencilWidth();
    for (int i = 0; i < 200; ++i)
        opt.step(f);
    EXPECT_LT(opt.stencilWidth(), h0);
}

TEST(ImplicitFiltering, EvalAccounting)
{
    ImplicitFiltering opt;
    opt.reset({0.0, 0.0});
    int calls = 0;
    const Objective f = [&](const std::vector<double> &x) {
        ++calls;
        return quadratic(x);
    };
    opt.step(f);
    // First step: f(x0) + 2n stencil + <= lineSearchSteps probes.
    EXPECT_GE(calls, 5);
    EXPECT_LE(calls, 8);
}

TEST(ImplicitFiltering, ConvergedFlagAtMinStencil)
{
    ImplicitFilteringConfig cfg;
    cfg.initialStencil = 0.1;
    cfg.minStencil = 0.05;
    ImplicitFiltering opt(cfg);
    opt.reset({0.0});
    const Objective flat = [](const std::vector<double> &) {
        return 1.0;
    };
    for (int i = 0; i < 30 && !opt.converged(); ++i)
        opt.step(flat);
    EXPECT_TRUE(opt.converged());
}

TEST(ImplicitFiltering, CloneConfigIndependent)
{
    ImplicitFiltering opt;
    auto clone = opt.cloneConfig();
    EXPECT_EQ(clone->name(), "ImplicitFiltering");
    clone->reset({1.0, 2.0});
    EXPECT_EQ(clone->params().size(), 2u);
}

TEST(ImplicitFiltering, PlugsIntoTreeVqa)
{
    // Section 9.2's claim: TreeVQA works with any optimizer that only
    // needs objective values.
    auto tasks = makeTasks("t", tfimFamily(4, 0.8, 1.2, 4), 0);
    solveGroundEnergies(tasks);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(4, 1, 0);
    ImplicitFiltering proto;

    TreeVqaConfig cfg;
    cfg.shotBudget = 1ull << 62;
    cfg.maxRounds = 60;
    cfg.seed = 19;
    TreeController controller(tasks, ansatz, proto, cfg);
    const TreeVqaResult res = controller.run();
    ASSERT_EQ(res.outcomes.size(), 4u);
    for (const auto &o : res.outcomes) {
        EXPECT_TRUE(std::isfinite(o.bestEnergy));
        EXPECT_GT(o.fidelity, 0.2);
    }
}

} // namespace
} // namespace treevqa
