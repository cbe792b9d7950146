#include "core/objective.h"

#include <cassert>
#include <cmath>

#include "common/thread_pool.h"

namespace treevqa {

Rng
probeRng(std::uint64_t stream_base, std::size_t probe_index)
{
    // SplitMix64-style mix: adjacent probe indices land in
    // decorrelated regions of the seed space, and the Rng constructor
    // expands the result through SplitMix64 again.
    std::uint64_t z = stream_base
        + 0x9e3779b97f4a7c15ull
            * (static_cast<std::uint64_t>(probe_index) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return Rng(z ^ (z >> 31));
}

ClusterObjective::ClusterObjective(
    std::vector<PauliSum> task_hamiltonians, Ansatz ansatz,
    EngineConfig config)
    : taskHams_(std::move(task_hamiltonians)), ansatz_(std::move(ansatz)),
      config_(std::move(config)),
      mixed_(taskHams_.empty() ? 0 : taskHams_.front().numQubits()),
      estimator_(config_.shotsPerTerm, config_.injectShotNoise)
{
    assert(!taskHams_.empty());
    aligned_ = alignTerms(taskHams_);
    for (const auto &string : aligned_.strings)
        if (!string.isIdentity())
            ++measuredTerms_;

    // Mixed coefficients: the average of the padded rows.
    const std::size_t m = aligned_.strings.size();
    mixedCoefs_.assign(m, 0.0);
    const double inv = 1.0 / static_cast<double>(taskHams_.size());
    for (const auto &row : aligned_.coefficients)
        for (std::size_t k = 0; k < m; ++k)
            mixedCoefs_[k] += inv * row[k];

    for (std::size_t k = 0; k < m; ++k)
        mixed_.add(mixedCoefs_[k], aligned_.strings[k]);

    // Aggregate shot-noise scales for the propagation backend:
    // variance of sum_k c_k <P_k>_est is bounded by sum_k c_k^2 / S.
    for (const auto &row : aligned_.coefficients) {
        double s2 = 0.0;
        for (std::size_t k = 0; k < m; ++k)
            if (!aligned_.strings[k].isIdentity())
                s2 += row[k] * row[k];
        aggregateNoiseScale_.push_back(std::sqrt(s2));
    }
    {
        double s2 = 0.0;
        for (std::size_t k = 0; k < m; ++k)
            if (!aligned_.strings[k].isIdentity())
                s2 += mixedCoefs_[k] * mixedCoefs_[k];
        aggregateNoiseScale_.push_back(std::sqrt(s2));
    }

    // The backend borrows views of everything computed above and the
    // ansatz's compiled program (shared across the evaluation and
    // exact paths and across objectives built from copies of the same
    // ansatz).
    SimBackendInputs inputs;
    inputs.program = ansatz_.compiled();
    inputs.initialBits = ansatz_.initialBits();
    inputs.aligned = &aligned_;
    inputs.mixedCoefs = &mixedCoefs_;
    inputs.taskHams = &taskHams_;
    inputs.mixed = &mixed_;
    inputs.aggregateNoiseScale = &aggregateNoiseScale_;
    inputs.estimator = &estimator_;
    inputs.noise = &config_.noise;
    inputs.propConfig = config_.propConfig;
    inputs.measuredTerms = measuredTerms_;
    inputs.shotsPerEval = evalCost();
    backend_ = makeSimBackend(config_.backendName, std::move(inputs));
}

std::uint64_t
ClusterObjective::evalCost() const
{
    return config_.shotsPerTerm * measuredTerms_;
}

ClusterEvaluation
ClusterObjective::evaluate(const std::vector<double> &theta,
                           Rng &rng) const
{
    return backend_->evaluate(theta, rng);
}

std::vector<ClusterEvaluation>
ClusterObjective::evaluateBatch(
    const std::vector<std::vector<double>> &thetas, Rng &rng) const
{
    // One draw from the caller fixes the whole batch's streams: the
    // caller's generator advances identically for every batch size,
    // and probe i's result depends only on (base, i, thetas[i]) — not
    // on thread count or completion order.
    const std::uint64_t base = rng.nextU64();
    std::vector<ClusterEvaluation> out(thetas.size());
    ThreadPool::global().run(thetas.size(), [&](std::size_t i) {
        Rng probe_rng = probeRng(base, i);
        out[i] = backend_->evaluate(thetas[i], probe_rng);
    });
    return out;
}

double
ClusterObjective::exactTaskEnergy(std::size_t task_index,
                                  const std::vector<double> &theta) const
{
    assert(task_index < taskHams_.size());
    return backend_->exactTaskEnergy(task_index, theta);
}

std::vector<double>
ClusterObjective::exactTaskEnergies(const std::vector<double> &theta) const
{
    return backend_->exactTaskEnergies(theta);
}

double
ClusterObjective::exactMixedEnergy(const std::vector<double> &theta) const
{
    return backend_->exactMixedEnergy(theta);
}

} // namespace treevqa
