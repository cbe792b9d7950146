/**
 * @file
 * COBYLA-style derivative-free optimizer.
 *
 * Constrained Optimization BY Linear Approximations (Powell 1994) for
 * the unconstrained objectives of VQA: the optimizer keeps a simplex of
 * n+1 interpolation points, fits the (unique) linear model through them,
 * and takes a trust-region step against that model; the trust radius rho
 * shrinks when linear steps stop producing improvement. This reproduces
 * the optimization *dynamics* the paper relies on in Sections 8.6-8.7:
 * local linear approximations, no gradient estimates, roughly one
 * objective evaluation per iteration after the initial simplex build,
 * strong early progress and susceptibility to local minima in large
 * parameter spaces.
 *
 * Constraint handling from the original algorithm is omitted — every VQA
 * objective in the paper is unconstrained.
 */

#ifndef TREEVQA_OPT_COBYLA_H
#define TREEVQA_OPT_COBYLA_H

#include "opt/optimizer.h"

namespace treevqa {

/** COBYLA hyperparameters. */
struct CobylaConfig
{
    double rhoBegin = 0.30; ///< initial trust-region radius
    double rhoEnd = 1e-4;   ///< final radius (convergence floor)
    double shrink = 0.5;    ///< radius multiplier on failure
};

/** Stateful COBYLA stepper. */
class Cobyla : public IterativeOptimizer
{
  public:
    explicit Cobyla(CobylaConfig config = CobylaConfig{});

    void reset(const std::vector<double> &x0) override;
    /** One iteration; the initial simplex (n+1 points) goes out as one
     * probe batch, the trust-region trial as a single probe. */
    double stepBatch(const BatchObjective &objective) override;
    const std::vector<double> &params() const override { return best_; }
    int iteration() const override { return k_; }
    std::string name() const override { return "COBYLA"; }
    std::unique_ptr<IterativeOptimizer> cloneConfig() const override;
    JsonValue saveState() const override;
    void loadState(const JsonValue &state) override;

    double rho() const { return rho_; }
    bool converged() const { return rho_ <= config_.rhoEnd; }

  private:
    /** Build the initial simplex around x0 (n+1 evaluations, batched). */
    void buildSimplex(const BatchObjective &objective);
    /** Fit the linear model gradient through the current simplex. */
    std::vector<double> fitGradient() const;

    CobylaConfig config_;
    double rho_ = 0.0;
    std::vector<std::vector<double>> points_;
    std::vector<double> values_;
    std::vector<double> best_;
    double bestValue_ = 0.0;
    bool simplexBuilt_ = false;
    int k_ = 0;
};

} // namespace treevqa

#endif // TREEVQA_OPT_COBYLA_H
