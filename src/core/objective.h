/**
 * @file
 * Cluster objective: the quantum-execution model of a VQA cluster.
 *
 * A cluster jointly optimizes its mixed Hamiltonian (Section 5.2.1) over
 * the padded Pauli-term superset of its members. One objective
 * evaluation corresponds to measuring every superset term with
 * shots_per_term shots on the shared state |psi(theta)>; the *same*
 * per-term estimates are then classically recombined with each member's
 * coefficient vector, which is why tracking the individual losses of
 * Algorithm 2 costs no extra quantum execution (Section 5.2.2) and why
 * post-processing is a classical recombination (Section 5.3).
 *
 * Execution is delegated to one SimBackend selected by name
 * (EngineConfig::backendName; see sim_backend.h): "statevector" for
 * dense problems (<= ~20 qubits), "paulprop" for the paper's
 * large-scale path (Section 8.4). The backend runs the ansatz's
 * compiled program — built once when the Ansatz was constructed,
 * shared by every copy of it and by evaluate(), evaluateBatch() and
 * the exact-energy paths, so no call re-derives per-circuit state.
 *
 * Optimizers emit known-independent probe sets per iterate (the SPSA
 * +/- pair, simplex builds, stencils); evaluateBatch() evaluates such
 * a set in one parallel pass over the global thread pool, each probe
 * prepared on its own, with per-probe RNG streams that make the
 * results bit-identical to serial evaluation at any thread count.
 */

#ifndef TREEVQA_CORE_OBJECTIVE_H
#define TREEVQA_CORE_OBJECTIVE_H

#include <memory>
#include <string>
#include <vector>

#include "circuit/ansatz.h"
#include "common/rng.h"
#include "core/engine_config.h"
#include "core/sim_backend.h"
#include "pauli/pauli_sum.h"

namespace treevqa {

/** The measurable objective of one VQA cluster. */
class ClusterObjective
{
  public:
    /**
     * @param task_hamiltonians the cluster members' Hamiltonians.
     * @param ansatz shared parameterized state preparation.
     * @param config execution model.
     */
    ClusterObjective(std::vector<PauliSum> task_hamiltonians,
                     Ansatz ansatz, EngineConfig config);

    ClusterObjective(const ClusterObjective &) = delete;
    ClusterObjective &operator=(const ClusterObjective &) = delete;

    std::size_t numTasks() const { return taskHams_.size(); }
    const PauliSum &mixed() const { return mixed_; }
    const Ansatz &ansatz() const { return ansatz_; }
    const EngineConfig &config() const { return config_; }

    /** Registry name of the backend executing this objective. */
    std::string backendName() const { return backend_->name(); }

    /** Shots one evaluation costs: shots_per_term x |superset|. */
    std::uint64_t evalCost() const;

    /** Noisy evaluation at theta (charges shotsUsed to the caller).
     * Thread-safe: concurrent calls check private statevector buffers
     * out of the backend's workspace pool. */
    ClusterEvaluation evaluate(const std::vector<double> &theta,
                               Rng &rng) const;

    /**
     * Noisy evaluation of a whole batch of independent parameter
     * probes (one optimizer iterate's worth), fanned out over the
     * global thread pool.
     *
     * Determinism: exactly one value is drawn from `rng` (the stream
     * base), and probe i evaluates with the private stream
     * probeRng(base, i) — so results are bit-identical for any thread
     * count and any probe execution order, and the caller's generator
     * advances by the same amount regardless of batch size. The serial
     * reference for probe i is evaluate(thetas[i], probeRng(base, i)).
     */
    std::vector<ClusterEvaluation> evaluateBatch(
        const std::vector<std::vector<double>> &thetas, Rng &rng) const;

    /** The per-probe RNG stream of evaluateBatch: SplitMix64-style mix
     * of the stream base with the probe index. */
    static Rng probeRng(std::uint64_t stream_base,
                        std::size_t probe_index)
    {
        return treevqa::probeRng(stream_base, probe_index);
    }

    /** Exact (noiseless, infinite-shot) member energy at theta. */
    double exactTaskEnergy(std::size_t task_index,
                           const std::vector<double> &theta) const;

    /** All exact member energies at theta (one propagation/state). */
    std::vector<double> exactTaskEnergies(
        const std::vector<double> &theta) const;

    /** Exact mixed-Hamiltonian energy at theta. */
    double exactMixedEnergy(const std::vector<double> &theta) const;

  private:
    std::vector<PauliSum> taskHams_;
    Ansatz ansatz_;
    EngineConfig config_;
    AlignedTerms aligned_;
    /** Non-identity superset terms (constructor invariant): sizes the
     * per-evaluation noise draw and the shot charge without rescanning
     * the strings on every probe. */
    std::size_t measuredTerms_ = 0;
    /** Mixed coefficients aligned with aligned_.strings. */
    std::vector<double> mixedCoefs_;
    PauliSum mixed_;
    ShotEstimator estimator_;
    /** Shot-noise scale per observable for the propagation backend:
     * sqrt(sum_k c_k^2) for each task, mixed last. */
    std::vector<double> aggregateNoiseScale_;
    /** The engine, constructed last: it borrows views of the members
     * above (stable — this class is neither copyable nor movable). */
    std::unique_ptr<SimBackend> backend_;
};

} // namespace treevqa

#endif // TREEVQA_CORE_OBJECTIVE_H
