/**
 * @file
 * Nelder-Mead simplex optimizer.
 *
 * Not used by the paper's headline results, but Section 9.2 stresses
 * that TreeVQA is optimizer-agnostic ("compatible with any optimizer,
 * requiring only cost function evaluations"); shipping a third optimizer
 * demonstrates the plug-and-play interface and gives tests an
 * independent minimizer to cross-check SPSA and COBYLA.
 */

#ifndef TREEVQA_OPT_NELDER_MEAD_H
#define TREEVQA_OPT_NELDER_MEAD_H

#include "opt/optimizer.h"

namespace treevqa {

/** Standard Nelder-Mead coefficients. */
struct NelderMeadConfig
{
    double initialStep = 0.25; ///< simplex edge length around x0
    double alpha = 1.0;        ///< reflection
    double gamma = 2.0;        ///< expansion
    double rho = 0.5;          ///< contraction
    double sigma = 0.5;        ///< shrink
};

/** Stateful Nelder-Mead stepper (one reflect/expand/contract per step). */
class NelderMead : public IterativeOptimizer
{
  public:
    explicit NelderMead(NelderMeadConfig config = NelderMeadConfig{});

    void reset(const std::vector<double> &x0) override;
    /** One iteration; the initial simplex build (n+1 vertices) and a
     * shrink (n vertices) each go out as one probe batch. */
    double stepBatch(const BatchObjective &objective) override;
    const std::vector<double> &params() const override { return best_; }
    int iteration() const override { return k_; }
    std::string name() const override { return "NelderMead"; }
    std::unique_ptr<IterativeOptimizer> cloneConfig() const override;
    JsonValue saveState() const override;
    void loadState(const JsonValue &state) override;

    /** Current simplex spread max_i f_i - min_i f_i. */
    double simplexSpread() const;

  private:
    void buildSimplex(const BatchObjective &objective);
    void sortSimplex();

    NelderMeadConfig config_;
    std::vector<std::vector<double>> points_;
    std::vector<double> values_;
    std::vector<double> best_;
    bool simplexBuilt_ = false;
    int k_ = 0;
};

} // namespace treevqa

#endif // TREEVQA_OPT_NELDER_MEAD_H
