/**
 * @file
 * SimBackend: the single seam between the cluster objective and the
 * simulation engines.
 *
 * A ClusterObjective owns exactly one SimBackend, selected *by name*
 * through makeSimBackend() (EngineConfig::backendName). Both shipped
 * engines implement the same four operations:
 *
 *  - "statevector": dense simulation. Per-term expectations via one
 *    grouped pass of the backend's ExpectationPlan (built once for
 *    the objective's terms), per-term shot noise, classical
 *    recombination; the exact energies (all members, one member, the
 *    mixed Hamiltonian) are recombinations of that same pass.
 *  - "paulprop": Heisenberg-picture Pauli propagation (joint
 *    multi-observable propagation, aggregate shot noise), each
 *    evaluation a serial walk of the live-string map.
 *
 * Both consume the same immutable CompiledCircuit program (shared
 * ownership), which is the seam a future GPU backend plugs into: the
 * program's fused-op stream maps 1:1 onto device kernel launches.
 *
 * Determinism contract: evaluate() draws only from the caller's Rng
 * and is thread-safe, so ClusterObjective::evaluateBatch can fan a
 * batch's probes over the thread pool and probe i, evaluated with
 * probeRng(base, i), is bit-identical at any pool size.
 */

#ifndef TREEVQA_CORE_SIM_BACKEND_H
#define TREEVQA_CORE_SIM_BACKEND_H

#include <memory>
#include <string>
#include <vector>

#include "circuit/compiled_circuit.h"
#include "core/engine_config.h"
#include "pauli/pauli_sum.h"

namespace treevqa {

/**
 * Borrowed views of the objective's precomputed structure. All
 * pointers reference members of the owning ClusterObjective (which is
 * neither copyable nor movable), so they stay valid for the backend's
 * lifetime.
 */
struct SimBackendInputs
{
    std::shared_ptr<const CompiledCircuit> program;
    std::uint64_t initialBits = 0;
    /** Padded term superset + per-task coefficient rows. */
    const AlignedTerms *aligned = nullptr;
    /** Mixed coefficients aligned with aligned->strings. */
    const std::vector<double> *mixedCoefs = nullptr;
    /** The members' Hamiltonians (propagation observables). */
    const std::vector<PauliSum> *taskHams = nullptr;
    const PauliSum *mixed = nullptr;
    /** Aggregate shot-noise scale per observable, mixed last. */
    const std::vector<double> *aggregateNoiseScale = nullptr;
    const ShotEstimator *estimator = nullptr;
    const NoiseModel *noise = nullptr;
    PauliPropConfig propConfig;
    std::size_t measuredTerms = 0;
    /** Shots one evaluation charges. */
    std::uint64_t shotsPerEval = 0;
};

/** One simulation engine behind the cluster objective. */
class SimBackend
{
  public:
    virtual ~SimBackend() = default;

    /** Registry name this backend was constructed under. */
    virtual std::string name() const = 0;

    /** Noisy evaluation at theta. Thread-safe. */
    virtual ClusterEvaluation evaluate(const std::vector<double> &theta,
                                       Rng &rng) const = 0;

    /** Exact (noiseless, infinite-shot) member energies at theta. */
    virtual std::vector<double> exactTaskEnergies(
        const std::vector<double> &theta) const = 0;

    /** Exact single-member energy at theta. */
    virtual double exactTaskEnergy(std::size_t task_index,
                                   const std::vector<double> &theta)
        const = 0;

    /** Exact mixed-Hamiltonian energy at theta. */
    virtual double exactMixedEnergy(
        const std::vector<double> &theta) const = 0;
};

/**
 * Construct the backend registered under `name` ("statevector",
 * "paulprop"). Throws std::invalid_argument for unknown names.
 */
std::unique_ptr<SimBackend> makeSimBackend(const std::string &name,
                                           SimBackendInputs inputs);

/** The registered backend names, in registry order. */
const std::vector<std::string> &simBackendNames();

} // namespace treevqa

#endif // TREEVQA_CORE_SIM_BACKEND_H
