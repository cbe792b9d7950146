#include "opt/implicit_filtering.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace treevqa {

ImplicitFiltering::ImplicitFiltering(ImplicitFilteringConfig config)
    : config_(config), h_(config.initialStencil)
{
}

void
ImplicitFiltering::reset(const std::vector<double> &x0)
{
    x_ = x0;
    h_ = config_.initialStencil;
    haveFx_ = false;
    k_ = 0;
}

double
ImplicitFiltering::stepBatch(const BatchObjective &objective)
{
    assert(!x_.empty());
    const std::size_t n = x_.size();

    if (!haveFx_) {
        fx_ = objective({x_})[0];
        haveFx_ = true;
    }
    if (converged()) {
        ++k_;
        return fx_;
    }

    // Central-difference gradient on the current stencil; the full
    // 2n-point stencil is independent of the center value, so it goes
    // out as one probe batch (probes ordered +0, -0, +1, -1, ...).
    std::vector<std::vector<double>> stencil;
    stencil.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> xp = x_, xm = x_;
        xp[i] += h_;
        xm[i] -= h_;
        stencil.push_back(std::move(xp));
        stencil.push_back(std::move(xm));
    }
    const std::vector<double> stencil_values = objective(stencil);

    // Gradient plus the best stencil point (classic implicit-filtering
    // safeguard).
    std::vector<double> gradient(n, 0.0);
    double stencil_best = fx_;
    std::size_t stencil_best_index = stencil.size();
    for (std::size_t i = 0; i < n; ++i) {
        const double fp = stencil_values[2 * i];
        const double fm = stencil_values[2 * i + 1];
        gradient[i] = (fp - fm) / (2.0 * h_);
        if (fp < stencil_best) {
            stencil_best = fp;
            stencil_best_index = 2 * i;
        }
        if (fm < stencil_best) {
            stencil_best = fm;
            stencil_best_index = 2 * i + 1;
        }
    }

    double gnorm = 0.0;
    for (double g : gradient)
        gnorm += g * g;
    gnorm = std::sqrt(gnorm);

    bool improved = false;
    if (gnorm > 1e-14) {
        // Backtracking line search along -gradient, starting at a step
        // that moves h along the steepest coordinate.
        double step_size = h_ / gnorm * std::sqrt(n);
        for (int probe = 0; probe < config_.lineSearchSteps; ++probe) {
            std::vector<double> trial = x_;
            for (std::size_t i = 0; i < n; ++i)
                trial[i] -= step_size * gradient[i];
            const double ft = objective({trial})[0];
            if (ft < fx_) {
                x_ = std::move(trial);
                fx_ = ft;
                improved = true;
                break;
            }
            step_size *= 0.5;
        }
    }
    if (!improved && stencil_best_index < stencil.size()) {
        // The stencil itself found descent the model missed.
        x_ = std::move(stencil[stencil_best_index]);
        fx_ = stencil_best;
        improved = true;
    }
    if (!improved) {
        // Stencil failure: refine the filter scale.
        h_ = std::max(config_.minStencil, h_ * config_.shrink);
    }

    ++k_;
    return fx_;
}

std::unique_ptr<IterativeOptimizer>
ImplicitFiltering::cloneConfig() const
{
    return std::make_unique<ImplicitFiltering>(config_);
}

JsonValue
ImplicitFiltering::saveState() const
{
    JsonValue out = JsonValue::object();
    out.set("optimizer", JsonValue(name()));
    out.set("x", paramsToJson(x_));
    out.set("h", JsonValue(h_));
    out.set("fx", jsonNumberOrNull(fx_));
    out.set("haveFx", JsonValue(haveFx_));
    out.set("k", JsonValue(static_cast<std::int64_t>(k_)));
    return out;
}

void
ImplicitFiltering::loadState(const JsonValue &state)
{
    if (state.at("optimizer").asString() != name())
        throw std::runtime_error("ImplicitFiltering: checkpoint holds "
                                 + state.at("optimizer").asString()
                                 + " state");
    x_ = paramsFromJson(state.at("x"));
    h_ = state.at("h").asDouble();
    const JsonValue &fx = state.at("fx");
    fx_ = fx.isNull() ? 0.0 : fx.asDouble();
    haveFx_ = state.at("haveFx").asBool();
    k_ = static_cast<int>(state.at("k").asInt());
}

} // namespace treevqa
