/**
 * @file
 * Compiled circuit program: the reusable product of the gate-fusion
 * pass.
 *
 * A CompiledCircuit analyses its Circuit once per ansatz: the gate
 * list is folded into a program of fused ops (single-qubit runs
 * collapsed into one 2x2 slot range, diagonal runs deferred across
 * Cz/Rzz and the Cx control), with parameter slots left open so one
 * program serves every parameter binding.
 *
 * Fusion decisions are *structural*: a pending run counts as diagonal
 * when every gate in it is diagonal by type (Rz, S, Sdg), independent
 * of the bound angles, and a run's kernel (arbitrary 2x2 or diagonal)
 * follows the same rule. Runs with no parameter are multiplied out at
 * compile time.
 *
 * The program has two parts:
 *
 *  - The product-state prefix: each qubit's first fused op, if no op
 *    touched that qubit before it and every earlier op is either a
 *    prefix op or a Cx/Cz (which only move or negate amplitudes, so
 *    they commute with it bit for bit). From a basis state these ops
 *    build a product state, and execute() fills it in by doubling
 *    (buildProductState in sim/gate_kernels.h) instead of resetting
 *    the state and running one full pass per prefix op.
 *  - The flat op table: every op, prefix first, resolved at compile
 *    time to a GateKernel with its qubit masks and the index of its
 *    bound argument. A call binds every angle into one argument array
 *    (sincos and the fused products), then walks the table with no
 *    per-op switch on gate kind or stride.
 *
 * From a basis state, execute() gives every amplitude the bits of the
 * op-by-op pass over the fused program, up to the sign of exact zeros.
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
#include "sim/gate_kernels.h"
#include "sim/statevector.h"

namespace treevqa {

/** A fused, parameter-slotted program compiled from one Circuit. */
class CompiledCircuit
{
  public:
    explicit CompiledCircuit(const Circuit &circuit);

    int numQubits() const { return numQubits_; }
    int numParams() const { return numParams_; }
    int entanglingLayers() const { return entanglingLayers_; }
    /** Fused ops in the program, the prefix included. */
    std::size_t numOps() const { return table_.size(); }
    /** Ops of the product-state prefix (the first of the table). */
    std::size_t prefixOps() const { return prefixOps_; }

    /** The source instruction stream (retained verbatim): the input of
     * gate-by-gate consumers such as the Pauli-propagation backend. */
    const std::vector<GateInstr> &gates() const { return gates_; }

    /** Prepare the program's state at theta from the basis state
     * |initial_bits> into `state` (every amplitude is overwritten). */
    void execute(Statevector &state, const std::vector<double> &theta,
                 std::uint64_t initial_bits) const;

    /** Run the whole program on `state` as it is (no reset). */
    void apply(Statevector &state,
               const std::vector<double> &theta) const;

  private:
    /** One gate of a fused single-qubit run. */
    struct Slot
    {
        GateOp op;
        int paramIndex;
        double scale;
        double offset;
    };

    /** A parameter-bound fused run: the product of slots_[begin, end)
     * lands in argument `arg`. */
    struct BoundRun
    {
        std::uint32_t begin;
        std::uint32_t end;
        std::uint32_t arg;
    };

    /** A two-qubit rotation's angle binding into argument `arg`. */
    struct BoundAngle
    {
        int paramIndex;
        double scale;
        double offset;
        std::uint32_t arg;
    };

    /** One op of the flat table. */
    struct TableOp
    {
        GateKernel kernel;
        std::size_t abit;
        std::size_t bbit;
        std::uint32_t arg;
    };

    /** The product of a fused run's slots at theta. */
    static Gate1q runMatrix(const Slot *first, const Slot *last,
                            const std::vector<double> &theta);
    /** Bind theta: every argument into `args` (numArgs() slots). */
    void bind(const std::vector<double> &theta, KernelArg *args) const;
    /** The table from op `first` on. */
    void run(Statevector &state, const KernelArg *args,
             std::size_t first) const;
    std::size_t numArgs() const
    {
        return boundArgs_ + fixedArgs_.size();
    }

    int numQubits_;
    int numParams_;
    int entanglingLayers_;
    std::vector<GateInstr> gates_;
    std::vector<Slot> slots_;
    std::vector<BoundRun> boundRuns_;
    std::vector<BoundAngle> boundAngles_;
    /** Arguments [0, boundArgs_) are bound per call; the rest are
     * fixedArgs_, computed at compile time. */
    std::size_t boundArgs_ = 0;
    std::vector<KernelArg> fixedArgs_;
    std::vector<TableOp> table_;
    /** The product-state prefix is table_'s first prefixOps_ ops. */
    std::size_t prefixOps_ = 0;
};

} // namespace treevqa

#endif // TREEVQA_CIRCUIT_COMPILED_CIRCUIT_H
