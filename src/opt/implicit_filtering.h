/**
 * @file
 * Implicit Filtering optimizer (Kelley), the Section 9.2 extension.
 *
 * A derivative-free method for noisy objectives: central-difference
 * gradients are estimated on a stencil of width h, a projected
 * line-search step is taken, and when the stencil stops producing
 * descent the width h is halved — "filtering out" noise at ever finer
 * scales. The paper highlights it because its current stencil width is
 * a natural signal for TreeVQA's cluster granularity (coarse h: broad
 * exploration, shared clusters; fine h: precision refinement, split
 * clusters); the stencil width is exposed for exactly that use.
 *
 * Cost: 2n evaluations per iteration (central differences) plus the
 * line-search probes.
 */

#ifndef TREEVQA_OPT_IMPLICIT_FILTERING_H
#define TREEVQA_OPT_IMPLICIT_FILTERING_H

#include "opt/optimizer.h"

namespace treevqa {

/** Implicit-filtering hyperparameters. */
struct ImplicitFilteringConfig
{
    double initialStencil = 0.4; ///< starting difference width h
    double minStencil = 1e-4;    ///< convergence floor on h
    double shrink = 0.5;         ///< h multiplier on stencil failure
    int lineSearchSteps = 3;     ///< backtracking probes per iteration
};

/** Stateful implicit-filtering stepper. */
class ImplicitFiltering : public IterativeOptimizer
{
  public:
    explicit ImplicitFiltering(
        ImplicitFilteringConfig config = ImplicitFilteringConfig{});

    void reset(const std::vector<double> &x0) override;
    /** One iteration; the full 2n-point central-difference stencil
     * goes out as one probe batch (line-search probes stay serial:
     * each depends on the previous one failing). */
    double stepBatch(const BatchObjective &objective) override;
    const std::vector<double> &params() const override { return x_; }
    int iteration() const override { return k_; }
    std::string name() const override { return "ImplicitFiltering"; }
    std::unique_ptr<IterativeOptimizer> cloneConfig() const override;
    JsonValue saveState() const override;
    void loadState(const JsonValue &state) override;

    /** Current stencil width (the cluster-granularity signal of
     * Section 9.2). */
    double stencilWidth() const { return h_; }
    bool converged() const { return h_ <= config_.minStencil; }

  private:
    ImplicitFilteringConfig config_;
    std::vector<double> x_;
    double h_ = 0.0;
    double fx_ = 0.0;
    bool haveFx_ = false;
    int k_ = 0;
};

} // namespace treevqa

#endif // TREEVQA_OPT_IMPLICIT_FILTERING_H
