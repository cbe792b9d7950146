/**
 * @file
 * Compiled circuit program: the reusable product of the gate-fusion
 * pass.
 *
 * Before this layer existed the fusion pass lived inside
 * Circuit::apply and ran again on every state preparation — every
 * probe of every optimizer iterate re-decoded the gate list and
 * re-derived the same fusion structure. A CompiledCircuit performs
 * that analysis once per ansatz: the gate list is folded into a flat
 * program of fused ops (single-qubit runs collapsed into one 2x2 slot
 * range, diagonal runs deferred across Cz/Rzz/Cx exactly as the eager
 * pass did), with parameter slots left open so one program serves
 * every parameter binding. Executors then only multiply the pending
 * 2x2 matrices and touch the 2^n amplitudes — no per-call decode.
 *
 * Fusion decisions are *structural*: a pending run counts as diagonal
 * when every gate in it is diagonal by type (Rz, S, Sdg), independent
 * of the bound angles. For generic parameters this matches the former
 * value-level check; at special angles (e.g. Rx(0)) the compiled
 * program may flush where the eager pass deferred, which reassociates
 * the same unitaries and agrees to 1e-12.
 *
 * The program is also the shared input of every backend: the
 * statevector executor consumes the fused ops and the
 * Pauli-propagation backend walks the retained source gate stream.
 */

#ifndef TREEVQA_CIRCUIT_COMPILED_CIRCUIT_H
#define TREEVQA_CIRCUIT_COMPILED_CIRCUIT_H

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "sim/statevector.h"

namespace treevqa {

/** One gate folded into a fused single-qubit run. */
struct FusedGateSlot
{
    GateOp op;
    int paramIndex;
    double scale;
    double offset;
};

/** One executable instruction of a compiled program. */
struct CompiledOp
{
    enum class Kind : std::uint8_t
    {
        Fused1q, ///< product of slots_[slotBegin, slotEnd) on q0
        Rzz,
        Rxx,
        Ryy,
        Cx,
        Cz
    };

    Kind kind;
    int q0 = 0;
    int q1 = -1;
    /** Angle binding for Rzz/Rxx/Ryy (paramIndex -1 = fixed). */
    int paramIndex = -1;
    double scale = 1.0;
    double offset = 0.0;
    /** Slot range for Fused1q. */
    std::uint32_t slotBegin = 0;
    std::uint32_t slotEnd = 0;
};

/** A fused, parameter-slotted program compiled from one Circuit. */
class CompiledCircuit
{
  public:
    explicit CompiledCircuit(const Circuit &circuit);

    int numQubits() const { return numQubits_; }
    int numParams() const { return numParams_; }
    int entanglingLayers() const { return entanglingLayers_; }
    std::size_t numOps() const { return ops_.size(); }
    const std::vector<CompiledOp> &ops() const { return ops_; }

    /** The source instruction stream (retained verbatim): the input of
     * gate-by-gate consumers such as the Pauli-propagation backend. */
    const std::vector<GateInstr> &gates() const { return gates_; }

    /** Run the whole program on `state` (state is not reset first). */
    void execute(Statevector &state,
                 const std::vector<double> &theta) const;

  private:
    int numQubits_;
    int numParams_;
    int entanglingLayers_;
    std::vector<GateInstr> gates_;
    std::vector<CompiledOp> ops_;
    std::vector<FusedGateSlot> slots_;
};

} // namespace treevqa

#endif // TREEVQA_CIRCUIT_COMPILED_CIRCUIT_H
