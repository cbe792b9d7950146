#include "core/baseline.h"

#include <cassert>
#include <limits>
#include <memory>

#include "common/thread_pool.h"
#include "core/vqa_cluster.h"

namespace treevqa {

BaselineResult
runBaseline(const std::vector<VqaTask> &tasks, const Ansatz &ansatz,
            const IterativeOptimizer &optimizer_prototype,
            const BaselineConfig &config,
            const std::vector<double> &initial_params)
{
    assert(!tasks.empty());
    const std::size_t n = tasks.size();
    const std::uint64_t per_task_budget = config.shotBudget / n;

    Rng root_rng(config.seed);
    std::vector<double> start = initial_params;
    if (start.empty())
        start.assign(static_cast<std::size_t>(ansatz.numParams()), 0.0);

    // One single-task cluster per task, each charging its own ledger
    // against its share of the budget. A lone task never splits, so
    // the split requests of step() are ignored.
    std::vector<std::unique_ptr<VqaCluster>> clusters;
    std::vector<ShotLedger> ledgers(n);
    for (std::size_t i = 0; i < n; ++i)
        clusters.push_back(std::make_unique<VqaCluster>(
            static_cast<int>(i), 1, -1, std::vector<std::size_t>{i},
            std::vector<PauliSum>{tasks[i].hamiltonian},
            ansatz.withInitialBits(tasks[i].initialBits), config.engine,
            ClusterConfig{}, optimizer_prototype.cloneConfig(), start,
            root_rng.split()));

    std::vector<double> best_energies(
        n, std::numeric_limits<double>::infinity());
    const auto track_best = [&](std::size_t i) {
        const VqaCluster &cluster = *clusters[i];
        const double energy =
            cluster.objective().exactTaskEnergy(0, cluster.params());
        if (energy < best_energies[i])
            best_energies[i] = energy;
    };
    const auto total_shots = [&] {
        std::uint64_t total = 0;
        for (const ShotLedger &ledger : ledgers)
            total += ledger.total();
        return total;
    };

    BaselineResult result;
    int round = 0;
    const auto record = [&](int at_round) {
        TraceSample sample;
        sample.shots = total_shots();
        sample.iteration = at_round;
        sample.numClusters = n;
        sample.bestEnergies = best_energies;
        result.trace.push_back(std::move(sample));
    };

    // Rounds over the tasks so the trace is one monotone
    // shots-vs-progress series; a task stops once its ledger reaches
    // its share or it hits the iteration cap. A round's tasks step
    // through one pool fan-out, as a tree round's clusters do; each
    // owns its RNG, ledger and best slot, so any pool size agrees.
    std::vector<std::size_t> active;
    do {
        ++round;
        active.clear();
        for (std::size_t i = 0; i < n; ++i)
            if (ledgers[i].total() < per_task_budget
                && (config.maxIterationsPerTask <= 0
                    || clusters[i]->iterations()
                           < config.maxIterationsPerTask))
                active.push_back(i);
        const bool metrics_round = round % config.metricsInterval == 0;
        ThreadPool::global().run(active.size(), [&](std::size_t a) {
            const std::size_t i = active[a];
            clusters[i]->step(ledgers[i]);
            if (metrics_round)
                track_best(i);
        });
        if (metrics_round)
            record(round);
    } while (!active.empty());

    // Final exact evaluation for every task.
    for (std::size_t i = 0; i < n; ++i)
        track_best(i);
    record(round);

    result.totalShots = total_shots();
    result.rounds = round;
    result.outcomes.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        result.outcomes[i].bestEnergy = best_energies[i];
        result.outcomes[i].bestClusterId = static_cast<int>(i);
        if (tasks[i].hasGroundEnergy())
            result.outcomes[i].fidelity = energyFidelity(
                best_energies[i], tasks[i].groundEnergy);
    }
    return result;
}

} // namespace treevqa
