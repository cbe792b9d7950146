/**
 * @file
 * Regenerates Fig. 9: per-task shot savings on the large-scale
 * benchmarks simulated with Pauli propagation (Section 8.4) — a
 * 25-site Ising chain and the 28-qubit C2H2 family — in noiseless and
 * depolarizing-noise (1% per layer) settings.
 *
 * Exact ground states are unavailable at this scale (for the paper
 * too), so the read-out follows the paper: TreeVQA runs a fixed
 * iteration budget; each baseline task then runs until it first
 * matches TreeVQA's final energy for that task. Tasks whose baseline
 * never catches up within its cap are reported as lower bounds (the
 * paper's hatched bars).
 */

#include <cstdio>

#include "bench_common.h"
#include "bench_suites.h"
#include "ham/synthetic_molecule.h"
#include "opt/spsa.h"

using namespace treevqa;
using namespace treevqa::bench;

namespace {

struct LargeScaleSpec
{
    std::string name;
    std::vector<VqaTask> tasks;
    Ansatz ansatz;
    int treeRounds;
    int baseIters;
    PauliPropConfig prop;
};

void
runPanel(const LargeScaleSpec &spec, const NoiseModel &noise,
         const char *mode, CsvWriter &csv)
{
    EngineConfig engine;
    engine.backendName = kPauliPropagationBackendName;
    engine.propConfig = spec.prop;
    engine.noise = noise;

    TreeVqaConfig tcfg;
    tcfg.shotBudget = std::numeric_limits<std::uint64_t>::max() / 2;
    tcfg.maxRounds = spec.treeRounds;
    tcfg.metricsInterval = 4;
    tcfg.engine = engine;
    tcfg.seed = 0x916;
    Spsa proto(SpsaConfig{}, 0x917);
    TreeController controller(spec.tasks, spec.ansatz, proto, tcfg);
    const TreeVqaResult tree = controller.run();

    const double tree_per_task =
        static_cast<double>(tree.totalShots)
        / static_cast<double>(spec.tasks.size());

    std::printf("--- %s (%s) ---\n", spec.name.c_str(), mode);
    std::printf("  TreeVQA: %s shots total, %zu final clusters\n",
                formatShots(tree.totalShots).c_str(),
                tree.finalClusterCount);
    std::printf("  %-6s %-14s %-16s %-10s\n", "task", "E(TreeVQA)",
                "baseline-shots", "savings");

    for (std::size_t i = 0; i < spec.tasks.size(); ++i) {
        const double target = tree.outcomes[i].bestEnergy;

        BaselineConfig bcfg;
        bcfg.shotBudget =
            std::numeric_limits<std::uint64_t>::max() / 2;
        bcfg.maxIterationsPerTask = spec.baseIters;
        bcfg.metricsInterval = 4;
        bcfg.engine = engine;
        bcfg.seed = 0x918 + i;
        const BaselineResult single = runBaseline(
            {spec.tasks[i]}, spec.ansatz, proto, bcfg);

        // First trace point at or below TreeVQA's energy.
        std::uint64_t reach =
            std::numeric_limits<std::uint64_t>::max();
        for (const auto &sample : single.trace) {
            if (sample.bestEnergies[0] <= target) {
                reach = sample.shots;
                break;
            }
        }
        const bool capped =
            reach == std::numeric_limits<std::uint64_t>::max();
        const double base_shots = capped
            ? static_cast<double>(single.totalShots)
            : static_cast<double>(reach);
        const double savings = base_shots / tree_per_task;
        std::printf("  %-6zu %-14.4f %-16s %7.1fx%s\n", i, target,
                    formatShots(static_cast<std::uint64_t>(
                        base_shots)).c_str(),
                    savings, capped ? " (lower bound)" : "");
        char line[240];
        std::snprintf(line, sizeof(line), "%s,%s,%zu,%.6f,%.0f,%.3f,%d",
                      spec.name.c_str(), mode, i, target, base_shots,
                      savings, capped ? 1 : 0);
        csv.row(line);
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    std::printf("=== Fig. 9: large-scale shot savings "
                "(Pauli propagation) ===\n\n");
    CsvWriter csv("fig9_large_scale");
    csv.row("benchmark,mode,task,tree_energy,base_shots,savings,"
            "lower_bound");

    // 25-site Ising chain, 10 field values around criticality.
    LargeScaleSpec ising;
    ising.name = "Ising-25";
    ising.tasks =
        makeTasks("ising25", tfimFamily(25, 0.8, 1.2, 8), 0);
    ising.ansatz = makeHardwareEfficientAnsatz(25, 1, 0);
    ising.treeRounds = scaled(40);
    ising.baseIters = scaled(40);
    ising.prop.maxWeight = 8;          // paper's truncation
    ising.prop.coefThreshold = 1e-5;
    ising.prop.maxTerms = 20000;

    // C2H2-shaped 28-qubit family (DESIGN.md substitution).
    LargeScaleSpec c2h2;
    c2h2.name = "C2H2-28";
    const auto spec = syntheticC2H2();
    c2h2.tasks = makeTasks(
        "c2h2", syntheticFamily(spec, familyBonds(spec, 4)),
        halfFillingBits(28));
    c2h2.ansatz = makeHardwareEfficientAnsatz(
        28, 1, halfFillingBits(28));
    c2h2.treeRounds = scaled(12);
    c2h2.baseIters = scaled(12);
    c2h2.prop.maxWeight = 8;
    c2h2.prop.coefThreshold = 1e-5;
    c2h2.prop.maxTerms = 15000;

    for (const auto *panel : {&ising, &c2h2}) {
        runPanel(*panel, NoiseModel{}, "noiseless", csv);
        runPanel(*panel, NoiseModel::depolarizing1pct(), "noisy-1pct",
                 csv);
    }
    std::printf("(paper: Ising savings ~100x, C2H2 ~10x, noisy "
                "slightly below noiseless)\n");
    return 0;
}
