/**
 * @file
 * Simultaneous Perturbation Stochastic Approximation (SPSA).
 *
 * The paper's primary optimizer (Sections 5.2.2, 7.3): two objective
 * evaluations per iteration regardless of dimension, with the standard
 * Spall gain sequences
 *     a_k = a / (A + k + 1)^alpha,   c_k = c / (k + 1)^gamma,
 * alpha = 0.602, gamma = 0.101, and a Rademacher perturbation direction.
 *
 * The update is
 *     theta_{k+1} = theta_k - a_k * (L(theta+c_k D) - L(theta-c_k D))
 *                            / (2 c_k) * D^{-1},
 * where D^{-1} is the elementwise inverse of the Rademacher vector
 * (equal to D itself for +/-1 entries).
 */

#ifndef TREEVQA_OPT_SPSA_H
#define TREEVQA_OPT_SPSA_H

#include "common/rng.h"
#include "opt/optimizer.h"

namespace treevqa {

/** SPSA hyperparameters. */
struct SpsaConfig
{
    double a = 0.25;      ///< learning-rate numerator
    double c = 0.1;       ///< perturbation-size numerator
    double bigA = 10.0;   ///< stability constant A
    double alpha = 0.602; ///< learning-rate decay exponent
    double gamma = 0.101; ///< perturbation decay exponent
    /** Clip on the per-iteration parameter change (0 disables). */
    double maxStepNorm = 2.0;
};

/** Stateful SPSA stepper. */
class Spsa : public IterativeOptimizer
{
  public:
    Spsa(SpsaConfig config, std::uint64_t seed);

    void reset(const std::vector<double> &x0) override;
    /** One iteration: the +/- perturbed pair goes out as one batch. */
    double stepBatch(const BatchObjective &objective) override;
    const std::vector<double> &params() const override { return x_; }
    int iteration() const override { return k_; }
    std::string name() const override { return "SPSA"; }
    std::unique_ptr<IterativeOptimizer> cloneConfig() const override;
    /** Dynamic state incl. the private perturbation RNG (resume must
     * replay the exact Rademacher sequence). */
    JsonValue saveState() const override;
    void loadState(const JsonValue &state) override;

    const SpsaConfig &config() const { return config_; }

    /** Current gains (exposed for tests and the Section 8.1 learning-
     * rate discussion). */
    double currentLearningRate() const;
    double currentPerturbation() const;

  private:
    SpsaConfig config_;
    Rng rng_;
    std::uint64_t seed_;
    std::vector<double> x_;
    int k_ = 0;
};

} // namespace treevqa

#endif // TREEVQA_OPT_SPSA_H
