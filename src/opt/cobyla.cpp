#include "opt/cobyla.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "linalg/matrix.h"

namespace treevqa {

Cobyla::Cobyla(CobylaConfig config)
    : config_(config), rho_(config.rhoBegin)
{
}

void
Cobyla::reset(const std::vector<double> &x0)
{
    best_ = x0;
    bestValue_ = 0.0;
    rho_ = config_.rhoBegin;
    points_.clear();
    values_.clear();
    simplexBuilt_ = false;
    k_ = 0;
}

void
Cobyla::buildSimplex(const BatchObjective &objective)
{
    // All n+1 interpolation points are independent: one probe batch.
    const std::size_t n = best_.size();
    points_.clear();
    points_.reserve(n + 1);

    points_.push_back(best_);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> p = best_;
        p[i] += rho_;
        points_.push_back(std::move(p));
    }
    values_ = objective(points_);

    const auto best_it = std::min_element(values_.begin(), values_.end());
    bestValue_ = *best_it;
    best_ = points_[static_cast<std::size_t>(
        std::distance(values_.begin(), best_it))];
    simplexBuilt_ = true;
}

std::vector<double>
Cobyla::fitGradient() const
{
    // Linear model L(x) = f0 + g . (x - x0) through the n+1 points:
    // solve (p_i - p_0) . g = f_i - f_0 for i = 1..n.
    const std::size_t n = best_.size();
    Matrix a(n, n);
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = points_[i + 1][j] - points_[0][j];
        b[i] = values_[i + 1] - values_[0];
    }
    return solveLinearSystem(std::move(a), std::move(b));
}

double
Cobyla::stepBatch(const BatchObjective &objective)
{
    assert(!best_.empty());

    if (!simplexBuilt_) {
        buildSimplex(objective);
        ++k_;
        return bestValue_;
    }
    if (converged()) {
        ++k_;
        return bestValue_;
    }

    std::vector<double> g = fitGradient();
    double gnorm = 0.0;
    for (double gi : g)
        gnorm += gi * gi;
    gnorm = std::sqrt(gnorm);

    if (g.empty() || gnorm < 1e-14) {
        // Degenerate simplex: rebuild at a smaller radius.
        rho_ = std::max(config_.rhoEnd, rho_ * config_.shrink);
        buildSimplex(objective);
        ++k_;
        return bestValue_;
    }

    // Trust-region step of length rho against the linear model.
    const std::size_t n = best_.size();
    std::vector<double> trial = points_[0];
    // Anchor the step at the simplex base point (the model's origin).
    for (std::size_t i = 0; i < n; ++i)
        trial[i] -= rho_ * g[i] / gnorm;
    const double f_trial = objective({trial})[0];
    ++k_;

    if (f_trial < bestValue_) {
        bestValue_ = f_trial;
        best_ = trial;
    }

    // Replace the worst simplex point with the trial if it improves it;
    // otherwise the linear model failed at this radius -> shrink.
    const auto worst_it = std::max_element(values_.begin(), values_.end());
    const std::size_t worst =
        static_cast<std::size_t>(std::distance(values_.begin(), worst_it));
    if (f_trial < *worst_it) {
        points_[worst] = std::move(trial);
        values_[worst] = f_trial;
        // Keep the base point (index 0) the best vertex so the model is
        // centered where it is most accurate.
        const auto b_it = std::min_element(values_.begin(), values_.end());
        const std::size_t b =
            static_cast<std::size_t>(std::distance(values_.begin(), b_it));
        if (b != 0) {
            std::swap(points_[0], points_[b]);
            std::swap(values_[0], values_[b]);
        }
    } else {
        rho_ = std::max(config_.rhoEnd, rho_ * config_.shrink);
    }
    return bestValue_;
}

std::unique_ptr<IterativeOptimizer>
Cobyla::cloneConfig() const
{
    return std::make_unique<Cobyla>(config_);
}

JsonValue
Cobyla::saveState() const
{
    JsonValue out = JsonValue::object();
    out.set("optimizer", JsonValue(name()));
    out.set("rho", JsonValue(rho_));
    JsonValue points = JsonValue::array();
    for (const auto &p : points_)
        points.push_back(paramsToJson(p));
    out.set("points", std::move(points));
    out.set("values", paramsToJson(values_));
    out.set("best", paramsToJson(best_));
    out.set("bestValue", JsonValue(bestValue_));
    out.set("simplexBuilt", JsonValue(simplexBuilt_));
    out.set("k", JsonValue(static_cast<std::int64_t>(k_)));
    return out;
}

void
Cobyla::loadState(const JsonValue &state)
{
    if (state.at("optimizer").asString() != name())
        throw std::runtime_error("COBYLA: checkpoint holds "
                                 + state.at("optimizer").asString()
                                 + " state");
    rho_ = state.at("rho").asDouble();
    points_.clear();
    for (const JsonValue &p : state.at("points").asArray())
        points_.push_back(paramsFromJson(p));
    values_ = paramsFromJson(state.at("values"));
    best_ = paramsFromJson(state.at("best"));
    bestValue_ = state.at("bestValue").asDouble();
    simplexBuilt_ = state.at("simplexBuilt").asBool();
    k_ = static_cast<int>(state.at("k").asInt());
}

} // namespace treevqa
