/**
 * @file
 * Iterative optimizer interface.
 *
 * TreeVQA drives optimizers one iteration at a time (Algorithm 2: each
 * VQA-Cluster-Step optimizes, records losses, checks split conditions),
 * so the interface is a stateful stepper rather than a run-to-convergence
 * minimizer. The caller meters cost itself: it counts the evaluations
 * (and charges their shots) inside the objective it hands to a step.
 *
 * The framework treats optimizers as black boxes that only need objective
 * values — the paper's plug-and-play claim (Sections 5.2.2, 8.6, 9.2) —
 * and ships SPSA (primary), COBYLA (alternate) and Nelder-Mead (extra).
 *
 * Batched evaluation: every shipped optimizer emits *known-independent*
 * sets of parameter probes per iteration (the SPSA +/- pair, simplex
 * builds and shrinks, the full implicit-filtering stencil), so the
 * primary entry point is stepBatch(), which hands whole probe sets to a
 * BatchObjective that may evaluate them in parallel. Outside this
 * directory its one caller is VqaCluster::step, the VQA iteration of
 * tree rounds, the baseline and scenario jobs alike. step() with a plain one-at-a-time Objective remains available and
 * evaluates each batch serially in submission order, so the two paths
 * see identical evaluation sequences and produce identical iterates.
 */

#ifndef TREEVQA_OPT_OPTIMIZER_H
#define TREEVQA_OPT_OPTIMIZER_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"

namespace treevqa {

/** Objective callback: loss value at a parameter vector. */
using Objective = std::function<double(const std::vector<double> &)>;

/**
 * Batched objective callback: losses for a set of independent
 * parameter probes, in probe order. Implementations may evaluate the
 * probes concurrently; optimizers only submit probes whose evaluations
 * are mutually independent within one call.
 */
using BatchObjective = std::function<std::vector<double>(
    const std::vector<std::vector<double>> &)>;

/** Stateful one-iteration-at-a-time minimizer. */
class IterativeOptimizer
{
  public:
    virtual ~IterativeOptimizer() = default;

    /** (Re)start from the given parameter vector. */
    virtual void reset(const std::vector<double> &x0) = 0;

    /**
     * Perform one optimizer iteration, submitting each per-iterate set
     * of independent probes as one BatchObjective call.
     * @return the iteration's loss estimate (implementation-defined;
     *         for SPSA the mean of the two perturbed evaluations).
     */
    virtual double stepBatch(const BatchObjective &objective) = 0;

    /**
     * One iteration against a plain serial objective: adapts
     * `objective` into a batch callback that evaluates probes one at a
     * time in order, then delegates to stepBatch(). Identical results
     * and evaluation sequence to the batch path.
     */
    double step(const Objective &objective);

    /** Current parameter iterate. */
    virtual const std::vector<double> &params() const = 0;

    /** Iterations executed since reset. */
    virtual int iteration() const = 0;

    /** Human-readable optimizer name for reports. */
    virtual std::string name() const = 0;

    /** Deep copy preserving the optimizer's configuration but NOT its
     * iterate (children re-reset with inherited parameters). */
    virtual std::unique_ptr<IterativeOptimizer> cloneConfig() const = 0;

    /**
     * Serialize the optimizer's complete *dynamic* state (iterate,
     * iteration counter, simplex/stencil internals, private RNG) as a
     * JSON object. Hyperparameters are NOT included: they belong to
     * construction, so a checkpoint is restored into an instance built
     * from the same spec. The contract — the basis of bit-identical
     * checkpoint resume — is that
     *     b.loadState(a.saveState())
     * makes b produce exactly the evaluation requests and iterates a
     * would have produced from that point on, bit for bit.
     */
    virtual JsonValue saveState() const = 0;

    /** Restore a snapshot taken by saveState() on an instance with the
     * same configuration. Throws std::runtime_error on malformed or
     * mismatched state. */
    virtual void loadState(const JsonValue &state) = 0;
};

/** saveState/loadState helpers shared by the shipped optimizers. */
JsonValue paramsToJson(const std::vector<double> &values);
std::vector<double> paramsFromJson(const JsonValue &array);

} // namespace treevqa

#endif // TREEVQA_OPT_OPTIMIZER_H
