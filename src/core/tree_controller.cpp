#include "core/tree_controller.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

#include "cluster/similarity.h"
#include "common/thread_pool.h"

namespace treevqa {

TreeController::TreeController(std::vector<VqaTask> tasks, Ansatz ansatz,
                               const IterativeOptimizer &optimizer_prototype,
                               TreeVqaConfig config)
    : tasks_(std::move(tasks)), ansatz_(std::move(ansatz)),
      optimizerPrototype_(optimizer_prototype), config_(config),
      rng_(config.seed)
{
    assert(!tasks_.empty());

    // Precompute the task similarity structure (Section 5.2.4).
    std::vector<PauliSum> hams;
    hams.reserve(tasks_.size());
    for (const auto &task : tasks_)
        hams.push_back(task.hamiltonian);
    similarity_ = similarityMatrix(hams);

    bestEnergies_.assign(tasks_.size(),
                         std::numeric_limits<double>::infinity());
    bestClusterIds_.assign(tasks_.size(), -1);

    // Root clusters: one per unique initial state (Section 5.1).
    std::map<std::uint64_t, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < tasks_.size(); ++i)
        groups[tasks_[i].initialBits].push_back(i);

    const std::vector<double> zero_params(
        static_cast<std::size_t>(ansatz_.numParams()), 0.0);
    for (auto &[bits, indices] : groups)
        spawnCluster(1, -1, std::move(indices), zero_params);
}

void
TreeController::spawnCluster(int level, int parent_id,
                             std::vector<std::size_t> task_indices,
                             std::vector<double> initial_params)
{
    assert(!task_indices.empty());
    std::vector<PauliSum> hams;
    hams.reserve(task_indices.size());
    for (std::size_t idx : task_indices)
        hams.push_back(tasks_[idx].hamiltonian);

    // All members of a cluster share the initial state by construction.
    const std::uint64_t bits = tasks_[task_indices.front()].initialBits;

    ClusterRecord record;
    record.cluster = std::make_unique<VqaCluster>(
        nextClusterId_++, level, parent_id, std::move(task_indices),
        std::move(hams), ansatz_.withInitialBits(bits), config_.engine,
        config_.cluster, optimizerPrototype_.cloneConfig(),
        std::move(initial_params), rng_.split());
    record.active = true;
    clusters_.push_back(std::move(record));
}

void
TreeController::recordSample(std::uint64_t shots, int round)
{
    std::size_t active = 0;
    for (auto &record : clusters_) {
        if (!record.active)
            continue;
        ++active;
        const std::vector<double> energies =
            record.cluster->exactTaskEnergies();
        const auto &indices = record.cluster->taskIndices();
        for (std::size_t i = 0; i < indices.size(); ++i) {
            if (energies[i] < bestEnergies_[indices[i]]) {
                bestEnergies_[indices[i]] = energies[i];
                bestClusterIds_[indices[i]] = record.cluster->id();
            }
        }
    }
    TraceSample sample;
    sample.shots = shots;
    sample.iteration = round;
    sample.numClusters = active;
    sample.bestEnergies = bestEnergies_;
    trace_.push_back(std::move(sample));
}

TreeVqaResult
TreeController::run()
{
    ShotLedger ledger;
    int round = 0;

    while (ledger.total() < config_.shotBudget
           && (config_.maxRounds <= 0 || round < config_.maxRounds)) {
        ++round;

        // One VQA-Cluster-Step per active cluster (Algorithm 1 line 5).
        // Active clusters are the leaves of the tree and mutually
        // independent (private RNG streams, private optimizers, pooled
        // workspaces, atomic ledger), so the whole round is one fan-out
        // over the thread pool; at one lane it runs inline in index
        // order. The budget is checked only at the top of the round.
        std::vector<std::size_t> active;
        for (std::size_t c = 0; c < clusters_.size(); ++c)
            if (clusters_[c].active)
                active.push_back(c);

        std::vector<VqaCluster::Status> statuses(active.size());
        ThreadPool::global().run(active.size(), [&](std::size_t i) {
            statuses[i] = clusters_[active[i]].cluster->step(ledger);
        });
        std::vector<std::size_t> to_split;
        for (std::size_t i = 0; i < active.size(); ++i)
            if (statuses[i] == VqaCluster::Status::SplitRequested)
                to_split.push_back(active[i]);

        // Execute splits: replace the cluster with two children that
        // inherit its parameters (Algorithm 1 line 9).
        for (std::size_t c : to_split) {
            VqaCluster &parent = *clusters_[c].cluster;
            if (parent.numTasks() < 2) {
                // A lone task cannot split; keep optimizing.
                parent.rearmMonitor();
                continue;
            }
            auto [left, right] =
                parent.partitionMembers(similarity_, rng_);
            const std::vector<double> inherited = parent.params();
            const int level = parent.level() + 1;
            const int parent_id = parent.id();
            clusters_[c].active = false;
            ++splitCount_;
            spawnCluster(level, parent_id, std::move(left), inherited);
            spawnCluster(level, parent_id, std::move(right), inherited);
        }

        if (round % config_.metricsInterval == 0
            || ledger.total() >= config_.shotBudget)
            recordSample(ledger.total(), round);
    }
    if (trace_.empty() || trace_.back().shots != ledger.total())
        recordSample(ledger.total(), round);

    TreeVqaResult result;
    result.totalShots = ledger.total();
    result.rounds = round;
    result.splitCount = splitCount_;

    std::size_t final_count = 0;
    int max_level = 1;
    for (const auto &record : clusters_) {
        max_level = std::max(max_level, record.cluster->level());
        if (record.active)
            ++final_count;
    }
    result.finalClusterCount = final_count;
    result.maxTreeLevel = max_level;

    // Critical depth: iterations along the deepest root-to-leaf chain
    // over total iterations across all clusters. Ids are assigned in
    // spawn order, so a cluster's id is its index in clusters_.
    long total_iters = 0;
    for (const auto &record : clusters_)
        total_iters += record.cluster->iterations();
    long critical = 0;
    for (const auto &record : clusters_) {
        if (!record.active)
            continue;
        long path = 0;
        for (int id = record.cluster->id(); id >= 0;) {
            const VqaCluster &node =
                *clusters_[static_cast<std::size_t>(id)].cluster;
            path += node.iterations();
            id = node.parentId();
        }
        critical = std::max(critical, path);
    }
    result.criticalDepthFraction = total_iters > 0
        ? static_cast<double>(critical) / static_cast<double>(total_iters)
        : 0.0;

    postProcess(result);
    result.trace = trace_;
    return result;
}

void
TreeController::postProcess(TreeVqaResult &result)
{
    // Evaluate every Hamiltonian on every final cluster state and keep
    // the best (Algorithm 1 lines 12-17). With the statevector backend
    // this is the classical recombination of stored per-term values the
    // paper describes; here we recompute it exactly.
    //
    // The (cluster, task) cross-evaluations are mutually independent —
    // private probe objectives, shared immutable compiled program —
    // so they fan out over the thread pool; the best-energy reduction
    // then walks the jobs in their serial enumeration order, keeping
    // the outcome bit-identical at any pool size.
    struct CrossEval
    {
        const VqaCluster *cluster;
        std::size_t task;
        std::uint64_t bits;
    };
    std::vector<CrossEval> jobs;
    for (const auto &record : clusters_) {
        if (!record.active)
            continue;
        const VqaCluster &cluster = *record.cluster;
        // Cross-evaluate *all* tasks that share this cluster's initial
        // state, not just its members.
        const std::uint64_t bits =
            tasks_[cluster.taskIndices().front()].initialBits;
        for (std::size_t t = 0; t < tasks_.size(); ++t)
            if (tasks_[t].initialBits == bits)
                jobs.push_back(CrossEval{&cluster, t, bits});
    }

    std::vector<double> energies(jobs.size());
    ThreadPool::global().run(jobs.size(), [&](std::size_t j) {
        const CrossEval &job = jobs[j];
        ClusterObjective probe({tasks_[job.task].hamiltonian},
                               ansatz_.withInitialBits(job.bits),
                               config_.engine);
        energies[j] = probe.exactTaskEnergy(0, job.cluster->params());
    });

    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const CrossEval &job = jobs[j];
        if (energies[j] < bestEnergies_[job.task]) {
            bestEnergies_[job.task] = energies[j];
            bestClusterIds_[job.task] = job.cluster->id();
        }
    }

    result.outcomes.resize(tasks_.size());
    for (std::size_t t = 0; t < tasks_.size(); ++t) {
        TaskOutcome &outcome = result.outcomes[t];
        outcome.bestEnergy = bestEnergies_[t];
        outcome.bestClusterId = bestClusterIds_[t];
        if (tasks_[t].hasGroundEnergy())
            outcome.fidelity = energyFidelity(bestEnergies_[t],
                                              tasks_[t].groundEnergy);
    }
    if (!trace_.empty())
        trace_.back().bestEnergies = bestEnergies_;
}

} // namespace treevqa
