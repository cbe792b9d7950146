/**
 * @file
 * Ansatz abstraction: a circuit plus its initial computational-basis
 * state.
 *
 * Every VQA cluster evaluates |psi(theta)> = C(theta) |init>; bundling
 * the pair keeps the TreeVQA core independent of which ansatz family a
 * benchmark uses (plug-and-play requirement, contribution 3 of the
 * paper).
 */

#ifndef TREEVQA_CIRCUIT_ANSATZ_H
#define TREEVQA_CIRCUIT_ANSATZ_H

#include <cstdint>
#include <memory>

#include "circuit/circuit.h"
#include "circuit/compiled_circuit.h"
#include "sim/statevector.h"

namespace treevqa {

/** A parameterized state-preparation recipe. */
class Ansatz
{
  public:
    Ansatz() = default;

    /**
     * @param circuit the parameterized circuit.
     * @param initial_bits computational-basis initial state (e.g. the
     *        Hartree-Fock occupation).
     */
    Ansatz(Circuit circuit, std::uint64_t initial_bits = 0);

    int numQubits() const { return circuit_.numQubits(); }
    int numParams() const { return circuit_.numParams(); }
    std::uint64_t initialBits() const { return initialBits_; }
    const Circuit &circuit() const { return circuit_; }

    /**
     * The ansatz's compiled program, built once at construction: every
     * copy of this ansatz (withInitialBits re-bindings, split children,
     * post-processing probes, baseline tasks) shares the same immutable
     * fused-op program, so the fusion pass never reruns per evaluation.
     * Null only for a default-constructed ansatz.
     */
    const std::shared_ptr<const CompiledCircuit> &compiled() const
    {
        return compiled_;
    }

    /** Prepare |psi(theta)> from scratch. */
    Statevector prepare(const std::vector<double> &theta) const;

    /**
     * Prepare |psi(theta)> into an existing state buffer of matching
     * qubit count, avoiding the 2^n allocation of prepare(). This is
     * the per-iterate path of ClusterObjective: one workspace serves
     * every objective evaluation.
     */
    void prepareInto(Statevector &state,
                     const std::vector<double> &theta) const;

    /** Copy of this ansatz with a different initial basis state (used
     * when root clusters are grouped by unique initial state). */
    Ansatz withInitialBits(std::uint64_t bits) const
    {
        Ansatz copy(*this);
        copy.initialBits_ = bits;
        return copy;
    }

  private:
    Circuit circuit_;
    std::shared_ptr<const CompiledCircuit> compiled_;
    std::uint64_t initialBits_ = 0;
};

} // namespace treevqa

#endif // TREEVQA_CIRCUIT_ANSATZ_H
