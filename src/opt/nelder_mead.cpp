#include "opt/nelder_mead.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <numeric>

namespace treevqa {

NelderMead::NelderMead(NelderMeadConfig config)
    : config_(config)
{
}

void
NelderMead::reset(const std::vector<double> &x0)
{
    best_ = x0;
    points_.clear();
    values_.clear();
    simplexBuilt_ = false;
    k_ = 0;
}

void
NelderMead::buildSimplex(const BatchObjective &objective)
{
    // All n+1 initial vertices are independent: one probe batch.
    const std::size_t n = best_.size();
    points_.clear();
    points_.push_back(best_);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> p = best_;
        p[i] += config_.initialStep;
        points_.push_back(std::move(p));
    }
    values_ = objective(points_);
    simplexBuilt_ = true;
    sortSimplex();
}

void
NelderMead::sortSimplex()
{
    std::vector<std::size_t> order(points_.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return values_[a] < values_[b];
    });
    std::vector<std::vector<double>> pts;
    std::vector<double> vals;
    pts.reserve(points_.size());
    vals.reserve(values_.size());
    for (std::size_t i : order) {
        pts.push_back(std::move(points_[i]));
        vals.push_back(values_[i]);
    }
    points_ = std::move(pts);
    values_ = std::move(vals);
    best_ = points_.front();
}

double
NelderMead::simplexSpread() const
{
    if (values_.empty())
        return 0.0;
    return values_.back() - values_.front();
}

double
NelderMead::stepBatch(const BatchObjective &objective)
{
    assert(!best_.empty());

    if (!simplexBuilt_) {
        buildSimplex(objective);
        ++k_;
        return values_.front();
    }

    const std::size_t n = best_.size();
    // Reflect/expand/contract are sequential decisions: each probe
    // depends on the previous value, so they go out as 1-point batches.
    const auto eval1 = [&](const std::vector<double> &point) {
        return objective({point})[0];
    };

    // Centroid of all but the worst vertex.
    std::vector<double> centroid(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            centroid[j] += points_[i][j];
    for (auto &c : centroid)
        c /= static_cast<double>(n);

    const std::vector<double> &worst = points_.back();
    std::vector<double> reflected(n);
    for (std::size_t j = 0; j < n; ++j)
        reflected[j] =
            centroid[j] + config_.alpha * (centroid[j] - worst[j]);
    const double f_r = eval1(reflected);

    if (f_r < values_.front()) {
        // Try expansion.
        std::vector<double> expanded(n);
        for (std::size_t j = 0; j < n; ++j)
            expanded[j] =
                centroid[j] + config_.gamma * (reflected[j] - centroid[j]);
        const double f_e = eval1(expanded);
        if (f_e < f_r) {
            points_.back() = std::move(expanded);
            values_.back() = f_e;
        } else {
            points_.back() = std::move(reflected);
            values_.back() = f_r;
        }
    } else if (f_r < values_[values_.size() - 2]) {
        points_.back() = std::move(reflected);
        values_.back() = f_r;
    } else {
        // Contraction toward the centroid.
        std::vector<double> contracted(n);
        for (std::size_t j = 0; j < n; ++j)
            contracted[j] =
                centroid[j] + config_.rho * (worst[j] - centroid[j]);
        const double f_c = eval1(contracted);
        if (f_c < values_.back()) {
            points_.back() = std::move(contracted);
            values_.back() = f_c;
        } else {
            // Shrink toward the best vertex: the n shrunk vertices are
            // independent, so they go out as one probe batch.
            for (std::size_t i = 1; i < points_.size(); ++i)
                for (std::size_t j = 0; j < n; ++j)
                    points_[i][j] = points_[0][j]
                        + config_.sigma * (points_[i][j] - points_[0][j]);
            const std::vector<std::vector<double>> shrunk(
                points_.begin() + 1, points_.end());
            const std::vector<double> shrunk_values = objective(shrunk);
            for (std::size_t i = 1; i < points_.size(); ++i)
                values_[i] = shrunk_values[i - 1];
        }
    }

    sortSimplex();
    ++k_;
    return values_.front();
}

std::unique_ptr<IterativeOptimizer>
NelderMead::cloneConfig() const
{
    return std::make_unique<NelderMead>(config_);
}

JsonValue
NelderMead::saveState() const
{
    JsonValue out = JsonValue::object();
    out.set("optimizer", JsonValue(name()));
    JsonValue points = JsonValue::array();
    for (const auto &p : points_)
        points.push_back(paramsToJson(p));
    out.set("points", std::move(points));
    out.set("values", paramsToJson(values_));
    out.set("best", paramsToJson(best_));
    out.set("simplexBuilt", JsonValue(simplexBuilt_));
    out.set("k", JsonValue(static_cast<std::int64_t>(k_)));
    return out;
}

void
NelderMead::loadState(const JsonValue &state)
{
    if (state.at("optimizer").asString() != name())
        throw std::runtime_error("NelderMead: checkpoint holds "
                                 + state.at("optimizer").asString()
                                 + " state");
    points_.clear();
    for (const JsonValue &p : state.at("points").asArray())
        points_.push_back(paramsFromJson(p));
    values_ = paramsFromJson(state.at("values"));
    best_ = paramsFromJson(state.at("best"));
    simplexBuilt_ = state.at("simplexBuilt").asBool();
    k_ = static_cast<int>(state.at("k").asInt());
}

} // namespace treevqa
