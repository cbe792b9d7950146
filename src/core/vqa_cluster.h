/**
 * @file
 * The VQA Cluster: TreeVQA's fundamental computational unit
 * (paper Section 5.2, Algorithm 2).
 *
 * A cluster jointly optimizes a shared parameterized state over a subset
 * of the application's Hamiltonians through their mixed Hamiltonian. It
 * monitors the optimization with sliding-window regression slopes — the
 * mixed loss and every member's individually-recombined loss — and
 * requests a split when the mixed slope stalls or any member's slope
 * turns positive. Splitting itself (spectral partition of the members)
 * is proposed here and executed by the TreeController, with children
 * inheriting this cluster's parameters.
 */

#ifndef TREEVQA_CORE_VQA_CLUSTER_H
#define TREEVQA_CORE_VQA_CLUSTER_H

#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/statistics.h"
#include "core/objective.h"
#include "linalg/matrix.h"
#include "opt/optimizer.h"
#include "sim/shot_estimator.h"

namespace treevqa {

/** Split-monitoring hyperparameters (Sections 5.2.2-5.2.3, 9.1). */
struct ClusterConfig
{
    /** Iterations before split monitoring starts (T_warmup). */
    int warmupIterations = 40;
    /** Sliding window length W for the regression slopes. */
    std::size_t windowSize = 16;
    /**
     * Stall threshold eps_split on the *relative* mixed slope
     * |slope| / max(|window mean|, eps): losses across benchmarks span
     * orders of magnitude, so the threshold is scale-free.
     */
    double epsSplit = 3e-4;
    /** A member's relative slope above this triggers a split (paper:
     * any positive slope; a small tolerance absorbs shot noise). */
    double positiveSlopeTol = 3e-3;
    /** Iterations to wait after a split/re-arm before monitoring
     * again. */
    int postSplitGrace = 10;
};

/** One node of the TreeVQA execution tree. */
class VqaCluster
{
  public:
    /** Step outcome. */
    enum class Status
    {
        Running,
        SplitRequested
    };

    /**
     * @param id unique cluster id (for reports).
     * @param level tree depth (root = 1).
     * @param parent_id id of the parent cluster (-1 for roots).
     * @param task_indices indices into the application's task list.
     * @param task_hamiltonians the members' Hamiltonians (same order).
     * @param ansatz shared ansatz (initial bits already set).
     * @param engine_config execution model.
     * @param cluster_config split monitoring knobs.
     * @param optimizer the cluster's own optimizer instance.
     * @param initial_params inherited parameters (warm start).
     * @param rng the cluster's private random stream.
     */
    VqaCluster(int id, int level, int parent_id,
               std::vector<std::size_t> task_indices,
               std::vector<PauliSum> task_hamiltonians, Ansatz ansatz,
               const EngineConfig &engine_config,
               const ClusterConfig &cluster_config,
               std::unique_ptr<IterativeOptimizer> optimizer,
               std::vector<double> initial_params, Rng rng);

    int id() const { return id_; }
    int level() const { return level_; }
    int parentId() const { return parentId_; }
    int iterations() const { return iterations_; }
    std::size_t numTasks() const { return taskIndices_.size(); }
    const std::vector<std::size_t> &taskIndices() const
    {
        return taskIndices_;
    }
    const std::vector<double> &params() const { return params_; }
    const ClusterObjective &objective() const { return objective_; }
    const ClusterConfig &clusterConfig() const { return clusterConfig_; }

    /** Most recent mixed-loss value (NaN before the first step). */
    double lastLoss() const { return lastLoss_; }

    /** Relative regression slope of the mixed loss window. */
    double mixedSlope() const;
    /** Relative regression slopes of each member's loss window. */
    std::vector<double> individualSlopes() const;

    /**
     * One VQA iteration (Algorithm 2 body): optimizer step on the mixed
     * objective, loss recording, split-condition check. Shots are
     * charged to `ledger`. Self-contained (private RNG, pooled
     * workspaces, atomic ledger), so steps of distinct clusters may run
     * concurrently.
     */
    Status step(ShotLedger &ledger);

    /** Exact member energies at the current parameters (metrics). */
    std::vector<double> exactTaskEnergies() const;

    /**
     * Spectral bisection of the members using the given global
     * similarity matrix (restricted to this cluster's members). Returns
     * the two non-empty child index sets (global task indices).
     */
    std::pair<std::vector<std::size_t>, std::vector<std::size_t>>
    partitionMembers(const Matrix &global_similarity, Rng &rng) const;

    /**
     * Re-arm monitoring after a false/unactionable trigger (single-task
     * clusters keep optimizing; paper Algorithm 2 retires multi-task
     * clusters instead).
     */
    void rearmMonitor();

    /** Force the optimizer state to fresh parameters (used by tests and
     * the forced-split study of Fig. 13). */
    void overrideParams(const std::vector<double> &params);

    /**
     * Serialize the cluster's *dynamic* state: optimizer saveState,
     * private RNG, parameters, iteration count, monitor hold, last loss
     * and both slide windows. Construction arguments are not included,
     * so the state is loaded into a cluster built from the same ones;
     * after b.loadState(a.saveState()) the two step bit-identically
     * (losses, parameters, ledger charges and Status).
     */
    JsonValue saveState() const;

    /** Restore a saveState() snapshot. Throws std::runtime_error on
     * malformed or mismatched state and then leaves the cluster as it
     * was. */
    void loadState(const JsonValue &state);

  private:
    bool monitoringActive() const;

    int id_;
    int level_;
    int parentId_;
    std::vector<std::size_t> taskIndices_;
    ClusterObjective objective_;
    ClusterConfig clusterConfig_;
    std::unique_ptr<IterativeOptimizer> optimizer_;
    std::vector<double> params_;
    Rng rng_;

    SlidingWindow mixedWindow_;
    std::vector<SlidingWindow> taskWindows_;
    int iterations_ = 0;
    int monitorHoldUntil_ = 0;
    double lastLoss_ = std::numeric_limits<double>::quiet_NaN();
};

} // namespace treevqa

#endif // TREEVQA_CORE_VQA_CLUSTER_H
