/**
 * @file
 * TreeVQA Central Controller (paper Section 5.1, Algorithm 1).
 *
 * The controller owns the cluster tree: it seeds one root cluster per
 * unique initial state and then runs rounds. A round starts only while
 * the global shot budget is not yet spent (the one budget check of
 * Algorithm 1's while), steps every active cluster once through one
 * fan-out over the thread pool, executes the splits the clusters
 * proposed (spectral partition, parameter inheritance) and records the
 * experiment trace. The run finishes with the post-processing pass
 * that evaluates every Hamiltonian on every final cluster state and
 * keeps the best (Section 5.3).
 */

#ifndef TREEVQA_CORE_TREE_CONTROLLER_H
#define TREEVQA_CORE_TREE_CONTROLLER_H

#include <memory>
#include <vector>

#include "core/metrics.h"
#include "core/vqa_cluster.h"
#include "core/vqa_task.h"

namespace treevqa {

/** Full configuration of a TreeVQA run. */
struct TreeVqaConfig
{
    /** Global shot budget S_max (Algorithm 1), checked once per round
     * before the round starts: a round that starts below the budget
     * runs to its end, so the total can exceed S_max by at most one
     * round of every active cluster. */
    std::uint64_t shotBudget = 0;
    /** Safety cap on controller rounds (0 = unlimited). */
    int maxRounds = 100000;
    /** Record exact task energies every this many rounds. */
    int metricsInterval = 5;
    /** Execution model; engine.backendName selects the SimBackend by
     * name ("statevector" | "paulprop") for every cluster objective
     * and post-processing probe of the run. */
    EngineConfig engine;
    /** Split monitoring knobs. */
    ClusterConfig cluster;
    /** Root RNG seed; every cluster derives a private stream. */
    std::uint64_t seed = 0x72ee;
};

/** Summary of one TreeVQA run. */
struct TreeVqaResult
{
    std::vector<TaskOutcome> outcomes;
    Trace trace;
    std::uint64_t totalShots = 0;
    int rounds = 0;
    std::size_t finalClusterCount = 0;
    /** Max tree level reached (root = 1). */
    int maxTreeLevel = 1;
    /**
     * Tree critical depth: iterations along the deepest root-to-leaf
     * path as a fraction of total iterations across all clusters
     * (the Fig. 14 right-hand metric).
     */
    double criticalDepthFraction = 0.0;
    /** Number of splits executed. */
    int splitCount = 0;
};

/** The TreeVQA execution engine. */
class TreeController
{
  public:
    /**
     * @param tasks the application's task list (ground energies may be
     *        NaN; fidelities are then NaN in the outcomes).
     * @param ansatz shared ansatz shape; each root cluster re-binds the
     *        initial bits of its task group.
     * @param optimizer_prototype cloned (configuration only) for every
     *        cluster.
     * @param config run configuration.
     */
    TreeController(std::vector<VqaTask> tasks, Ansatz ansatz,
                   const IterativeOptimizer &optimizer_prototype,
                   TreeVqaConfig config);

    /** Execute Algorithm 1 to completion. */
    TreeVqaResult run();

    /** The task list (with ground energies, if solved). */
    const std::vector<VqaTask> &tasks() const { return tasks_; }

    /** Precomputed global similarity matrix (Section 5.2.4). */
    const Matrix &similarity() const { return similarity_; }

  private:
    struct ClusterRecord
    {
        std::unique_ptr<VqaCluster> cluster;
        bool active = true;
    };

    /** Create a cluster and register its genealogy. */
    void spawnCluster(int level, int parent_id,
                      std::vector<std::size_t> task_indices,
                      std::vector<double> initial_params);

    /** Snapshot best-so-far energies into the trace. */
    void recordSample(std::uint64_t shots, int round);

    /** Post-processing pass (Section 5.3): the (cluster, task)
     * cross-evaluations fan out over the global thread pool with a
     * deterministic ordered reduction. */
    void postProcess(TreeVqaResult &result);

    std::vector<VqaTask> tasks_;
    Ansatz ansatz_;
    const IterativeOptimizer &optimizerPrototype_;
    TreeVqaConfig config_;
    Matrix similarity_;
    Rng rng_;

    std::vector<ClusterRecord> clusters_;
    std::vector<double> bestEnergies_;
    std::vector<int> bestClusterIds_;
    Trace trace_;
    int nextClusterId_ = 0;
    int splitCount_ = 0;
};

} // namespace treevqa

#endif // TREEVQA_CORE_TREE_CONTROLLER_H
