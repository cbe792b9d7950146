/**
 * @file
 * Pauli propagation: Heisenberg-picture simulation with weight
 * truncation.
 *
 * The paper's large-scale benchmarks (Section 8.4: 25-site Ising and
 * 28-qubit C2H2) cannot be simulated with dense statevectors; the
 * authors use the PauliPropagation method (Rudolph et al. 2025) with
 * truncation of Pauli terms above weight 8. This module reimplements
 * that algorithm in C++:
 *
 *   - the observable O is back-propagated through the circuit,
 *     O <- G^dag O G gate by gate in reverse order;
 *   - Clifford gates (H, S, X, CX, CZ) permute Pauli strings with a
 *     sign;
 *   - Pauli rotations exp(-i theta/2 P) split anticommuting strings:
 *     Q -> cos(theta) Q + sin(theta) (i P Q);
 *   - strings above the weight cap or below the coefficient threshold
 *     are truncated, bounding the term count;
 *   - at the end, <b|O'|b> for a computational-basis state keeps only
 *     the Z-diagonal strings.
 *
 * TreeVQA-specific extension: one propagation carries a *vector* of
 * coefficients per string — one slot per task Hamiltonian plus the mixed
 * Hamiltonian — because all cluster members share the circuit and
 * parameters. This makes the per-member loss tracking of Algorithm 2
 * essentially free even at 25+ qubits.
 *
 * Each propagation is one serial walk of the live-string map, so its
 * result does not depend on the thread-pool size; batches of
 * propagations (ClusterObjective::evaluateBatch) run in parallel over
 * the pool instead.
 *
 * The propagator consumes the same CompiledCircuit program as the
 * statevector backend (walking its retained source gate stream) and
 * shares ownership of it, so a propagator never dangles behind the
 * circuit it was built from.
 */

#ifndef TREEVQA_PAULPROP_PAULI_PROPAGATION_H
#define TREEVQA_PAULPROP_PAULI_PROPAGATION_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/compiled_circuit.h"
#include "pauli/pauli_sum.h"

namespace treevqa {

/** Truncation knobs (paper default: weight cap 8). */
struct PauliPropConfig
{
    int maxWeight = 8;            ///< drop strings heavier than this
    double coefThreshold = 1e-10; ///< drop slots' max |c| below this
    std::size_t maxTerms = 1u << 20; ///< hard cap on live strings
};

/** Heisenberg-picture simulator bound to one compiled program. */
class PauliPropagator
{
  public:
    /** Share an already-compiled program (the hot path: the same
     * program the statevector backend executes). */
    explicit PauliPropagator(
        std::shared_ptr<const CompiledCircuit> program,
        PauliPropConfig config = {});

    /** Compile-on-construct convenience (the propagator owns the
     * program; safe with temporary circuits). */
    explicit PauliPropagator(const Circuit &circuit,
                             PauliPropConfig config = {});

    const PauliPropConfig &config() const { return config_; }

    /**
     * Expectations of several observables for one parameter binding.
     *
     * @param theta circuit parameters.
     * @param observables the operators; they are propagated jointly.
     * @param initial_bits computational-basis initial state.
     * @return <O_k> for each observable, in order.
     */
    std::vector<double> expectations(
        const std::vector<double> &theta,
        const std::vector<PauliSum> &observables,
        std::uint64_t initial_bits) const;

    /** Single-observable convenience wrapper. */
    double expectation(const std::vector<double> &theta,
                       const PauliSum &observable,
                       std::uint64_t initial_bits) const;

    /** Live-string count after the most recent propagation (telemetry
     * for truncation studies; atomic because probe batches may run
     * expectations() concurrently — the value then reflects whichever
     * propagation finished last). */
    std::size_t lastTermCount() const
    {
        return lastTermCount_.load(std::memory_order_relaxed);
    }

  private:
    std::shared_ptr<const CompiledCircuit> program_;
    PauliPropConfig config_;
    mutable std::atomic<std::size_t> lastTermCount_{0};
};

} // namespace treevqa

#endif // TREEVQA_PAULPROP_PAULI_PROPAGATION_H
