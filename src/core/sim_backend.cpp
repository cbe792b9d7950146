#include "core/sim_backend.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "paulprop/pauli_propagation.h"
#include "sim/expectation.h"
#include "sim/workspace_pool.h"

namespace treevqa {

namespace {

/**
 * Dense-statevector engine: exact per-term expectations + per-term
 * shot noise.
 */
class StatevectorBackend final : public SimBackend
{
  public:
    explicit StatevectorBackend(SimBackendInputs in)
        : in_(std::move(in)),
          plan_(in_.aligned->strings, in_.program->numQubits()),
          pool_(in_.program->numQubits())
    {
        const std::vector<PauliString> &strings = in_.aligned->strings;
        identity_.reserve(strings.size());
        for (const PauliString &string : strings)
            identity_.push_back(string.isIdentity());
        if (!in_.noise->isNoiseless()) {
            const int layers = in_.program->entanglingLayers();
            damping_.reserve(strings.size());
            for (const PauliString &string : strings)
                damping_.push_back(
                    in_.noise->dampingFactor(string, layers));
        }
    }

    std::string name() const override
    {
        return kStatevectorBackendName;
    }

    ClusterEvaluation evaluate(const std::vector<double> &theta,
                               Rng &rng) const override
    {
        return finish(termExpectations(theta), rng);
    }

    std::vector<double> exactTaskEnergies(
        const std::vector<double> &theta) const override
    {
        const std::vector<double> values = termExpectations(theta);
        std::vector<double> energies(in_.taskHams->size());
        for (std::size_t i = 0; i < energies.size(); ++i)
            energies[i] = recombine(in_.aligned->coefficients[i], values);
        return energies;
    }

    double exactTaskEnergy(std::size_t task_index,
                           const std::vector<double> &theta) const override
    {
        return recombine(in_.aligned->coefficients[task_index],
                         termExpectations(theta));
    }

    double exactMixedEnergy(
        const std::vector<double> &theta) const override
    {
        return recombine(*in_.mixedCoefs, termExpectations(theta));
    }

  private:
    /** Exact per-term expectations at |psi(theta)>, prepared in a
     * pool buffer: the one pass every exact energy recombines. */
    std::vector<double> termExpectations(
        const std::vector<double> &theta) const
    {
        StatevectorPool::Lease state = pool_.acquire();
        in_.program->execute(*state, theta, in_.initialBits);
        return plan_.evaluate(*state);
    }

    /** Noise injection + classical recombination of per-term values. */
    ClusterEvaluation finish(std::vector<double> values, Rng &rng) const
    {
        ClusterEvaluation out;
        out.shotsUsed = in_.shotsPerEval;

        // Device noise: per-term damping (empty when noiseless).
        for (std::size_t k = 0; k < damping_.size(); ++k)
            values[k] *= damping_[k];
        // Shot noise: exact asymptotic variance per term, injected by
        // the estimator's vectorized normal pass.
        in_.estimator->injectTermNoise(
            values, [&](std::size_t k) { return identity_[k] != 0; },
            in_.measuredTerms, rng);
        // Classical recombination for the mixed and member energies.
        out.mixedEnergy = recombine(*in_.mixedCoefs, values);
        out.taskEnergies.resize(in_.taskHams->size());
        for (std::size_t i = 0; i < out.taskEnergies.size(); ++i)
            out.taskEnergies[i] =
                recombine(in_.aligned->coefficients[i], values);
        return out;
    }

    SimBackendInputs in_;
    /** The measured strings' expectation plan, built once: every
     * evaluation measures the same aligned terms. */
    ExpectationPlan plan_;
    /** Per-term identity flags and device-noise damping factors
     * (empty when noiseless), fixed for the backend's lifetime. */
    std::vector<char> identity_;
    std::vector<double> damping_;
    /** Reusable state buffers: objective evaluations are the
     * per-iterate hot path, and reallocating a 2^n complex vector per
     * call costs more than the gates at small n. The pool hands each
     * concurrent evaluation its own buffer, so all entry points are
     * reentrant. */
    mutable StatevectorPool pool_;
};

/**
 * Pauli-propagation engine: joint Heisenberg propagation of all member
 * Hamiltonians + the mixed one, aggregate shot noise.
 */
class PauliPropagationBackend final : public SimBackend
{
  public:
    explicit PauliPropagationBackend(SimBackendInputs in)
        : in_(std::move(in)),
          propagator_(in_.program, in_.propConfig)
    {
    }

    std::string name() const override
    {
        return kPauliPropagationBackendName;
    }

    ClusterEvaluation evaluate(const std::vector<double> &theta,
                               Rng &rng) const override
    {
        ClusterEvaluation out;
        out.shotsUsed = in_.shotsPerEval;

        // Joint propagation of members + mixed.
        std::vector<PauliSum> observables = *in_.taskHams;
        observables.push_back(*in_.mixed);
        std::vector<double> energies = propagator_.expectations(
            theta, observables, in_.initialBits);

        // Global-depolarizing deformation of the non-identity part.
        if (!in_.noise->isNoiseless()) {
            const double damp = std::pow(
                in_.noise->gateFidelity(),
                in_.program->entanglingLayers());
            for (std::size_t i = 0; i < in_.taskHams->size(); ++i) {
                const double trace =
                    (*in_.taskHams)[i].normalizedTrace();
                energies[i] = damp * (energies[i] - trace) + trace;
            }
            const double mixed_trace = in_.mixed->normalizedTrace();
            energies.back() =
                damp * (energies.back() - mixed_trace) + mixed_trace;
        }
        // Aggregate shot noise.
        if (in_.estimator->injectsNoise()) {
            const double inv_sqrt_s = 1.0
                / std::sqrt(static_cast<double>(
                    in_.estimator->shotsPerTerm()));
            for (std::size_t i = 0; i < energies.size(); ++i)
                energies[i] += rng.normal(
                    0.0, (*in_.aggregateNoiseScale)[i] * inv_sqrt_s);
        }

        out.mixedEnergy = energies.back();
        out.taskEnergies.assign(energies.begin(), energies.end() - 1);
        return out;
    }

    std::vector<double> exactTaskEnergies(
        const std::vector<double> &theta) const override
    {
        return propagator_.expectations(theta, *in_.taskHams,
                                        in_.initialBits);
    }

    double exactTaskEnergy(std::size_t task_index,
                           const std::vector<double> &theta) const override
    {
        return propagator_.expectation(
            theta, (*in_.taskHams)[task_index], in_.initialBits);
    }

    double exactMixedEnergy(
        const std::vector<double> &theta) const override
    {
        return propagator_.expectation(theta, *in_.mixed,
                                       in_.initialBits);
    }

  private:
    SimBackendInputs in_;
    PauliPropagator propagator_;
};

} // namespace

std::unique_ptr<SimBackend>
makeSimBackend(const std::string &name, SimBackendInputs inputs)
{
    assert(inputs.program);
    if (name == kStatevectorBackendName)
        return std::make_unique<StatevectorBackend>(std::move(inputs));
    if (name == kPauliPropagationBackendName)
        return std::make_unique<PauliPropagationBackend>(
            std::move(inputs));
    throw std::invalid_argument("unknown simulation backend: " + name);
}

const std::vector<std::string> &
simBackendNames()
{
    static const std::vector<std::string> names{
        kStatevectorBackendName, kPauliPropagationBackendName};
    return names;
}

} // namespace treevqa
