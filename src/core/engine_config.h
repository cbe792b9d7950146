/**
 * @file
 * Shared execution-model types: backend names, engine configuration,
 * and the result record of one objective evaluation.
 *
 * Split out of objective.h so the SimBackend interface and the
 * ClusterObjective can both depend on them without a cycle.
 */

#ifndef TREEVQA_CORE_ENGINE_CONFIG_H
#define TREEVQA_CORE_ENGINE_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "paulprop/pauli_propagation.h"
#include "sim/noise_model.h"
#include "sim/shot_estimator.h"

namespace treevqa {

/** Registered SimBackend names. */
inline constexpr const char *kStatevectorBackendName = "statevector";
inline constexpr const char *kPauliPropagationBackendName = "paulprop";

/** Quantum-execution configuration shared by all clusters of a run. */
struct EngineConfig
{
    /**
     * Backend selection by name ("statevector", "paulprop"): the seam
     * TreeController and the baseline runner configure, resolved by
     * the SimBackend registry (makeSimBackend). Unknown names throw at
     * objective construction.
     */
    std::string backendName = kStatevectorBackendName;
    /** Shots per Pauli term per evaluation (paper: 4096). */
    std::uint64_t shotsPerTerm = kDefaultShotsPerTerm;
    /** False turns the objective into the exact expectation (shots are
     * still accounted). */
    bool injectShotNoise = true;
    /** Device noise model (defaults to noiseless). */
    NoiseModel noise;
    /** Truncation/sharding knobs for the PauliPropagation backend. */
    PauliPropConfig propConfig;
};

/** Result of one objective evaluation. */
struct ClusterEvaluation
{
    /** Shot-noisy mixed-Hamiltonian energy (what the optimizer sees). */
    double mixedEnergy = 0.0;
    /** Shot-noisy member energies recombined from the same estimates. */
    std::vector<double> taskEnergies;
    /** Shots charged for this evaluation. */
    std::uint64_t shotsUsed = 0;
};

/** The per-probe RNG stream of batched evaluation: SplitMix64-style
 * mix of the stream base with the probe index. */
Rng probeRng(std::uint64_t stream_base, std::size_t probe_index);

} // namespace treevqa

#endif // TREEVQA_CORE_ENGINE_CONFIG_H
