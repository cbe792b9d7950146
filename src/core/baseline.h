/**
 * @file
 * The conventional-VQA baseline (paper Section 7.3): every task is
 * executed as its own independent VQE/QAOA instance with an equal share
 * of the shot budget. Each task is a single-task VqaCluster, so a
 * baseline iteration is exactly the clustered path's step (same
 * objective, batched probe evaluation and optimizer), with its own
 * shot ledger for its share. Tasks are advanced in rounds so the
 * recorded trace is a single monotone shots-vs-progress series
 * comparable to TreeVQA's, but no information flows between tasks,
 * and a round's tasks step concurrently with the same result at any
 * pool size.
 */

#ifndef TREEVQA_CORE_BASELINE_H
#define TREEVQA_CORE_BASELINE_H

#include <vector>

#include "core/metrics.h"
#include "core/objective.h"
#include "core/vqa_task.h"
#include "opt/optimizer.h"

namespace treevqa {

/** Baseline run configuration. */
struct BaselineConfig
{
    /** Total shot budget across all tasks (shared equally). */
    std::uint64_t shotBudget = 0;
    /** Safety cap on per-task iterations (0 = unlimited). */
    int maxIterationsPerTask = 100000;
    /** Record exact energies every this many rounds. */
    int metricsInterval = 5;
    /** Execution model; engine.backendName selects the SimBackend by
     * name ("statevector" | "paulprop") for every task. */
    EngineConfig engine;
    std::uint64_t seed = 0xba5e;
};

/** Summary of a baseline run. */
struct BaselineResult
{
    std::vector<TaskOutcome> outcomes;
    Trace trace;
    std::uint64_t totalShots = 0;
    int rounds = 0;
};

/**
 * Run the conventional baseline.
 *
 * @param tasks the application's tasks.
 * @param ansatz shared ansatz shape (initial bits re-bound per task).
 * @param optimizer_prototype cloned per task.
 * @param config run configuration.
 * @param initial_params optional warm-start parameters applied to every
 *        task (empty = zeros).
 */
BaselineResult runBaseline(const std::vector<VqaTask> &tasks,
                           const Ansatz &ansatz,
                           const IterativeOptimizer &optimizer_prototype,
                           const BaselineConfig &config,
                           const std::vector<double> &initial_params = {});

} // namespace treevqa

#endif // TREEVQA_CORE_BASELINE_H
