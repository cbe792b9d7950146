/**
 * @file
 * Parameterized quantum circuit IR.
 *
 * A Circuit is a flat list of gate instructions, each either fixed-angle
 * or bound to an entry of the parameter vector through
 * angle = scale * theta[paramIndex] + offset. This single indirection is
 * enough to express every ansatz in the paper: the hardware-efficient
 * ansatz, the minimal UCCSD circuit for H2 (via Pauli-exponential
 * expansion), and the multi-angle QAOA ansatz whose weighted clauses need
 * per-gate scale factors (Section 6).
 */

#ifndef TREEVQA_CIRCUIT_CIRCUIT_H
#define TREEVQA_CIRCUIT_CIRCUIT_H

#include <cstdint>
#include <string>
#include <vector>

#include "pauli/pauli_string.h"
#include "sim/statevector.h"

namespace treevqa {

/** Supported gate operations. */
enum class GateOp
{
    Rx, Ry, Rz,      // parameterizable single-qubit rotations
    Rzz, Rxx, Ryy,   // parameterizable two-qubit rotations
    H, X, S, Sdg,    // fixed single-qubit gates
    Cx, Cz           // fixed two-qubit gates
};

/** One gate instruction. */
struct GateInstr
{
    GateOp op;
    int q0 = 0;
    int q1 = -1;         ///< second qubit, -1 for single-qubit gates
    int paramIndex = -1; ///< -1: fixed angle; else index into theta
    double scale = 1.0;  ///< angle = scale * theta[paramIndex] + offset
    double offset = 0.0;
};

/** A parameterized circuit on a fixed register. */
class Circuit
{
  public:
    explicit Circuit(int num_qubits = 0);

    int numQubits() const { return numQubits_; }
    int numParams() const { return numParams_; }
    const std::vector<GateInstr> &gates() const { return gates_; }
    std::size_t numGates() const { return gates_.size(); }

    /** Allocate a fresh parameter slot and return its index. */
    int addParam();

    /** Fixed gates. */
    void h(int q);
    void x(int q);
    void s(int q);
    void sdg(int q);
    void cx(int control, int target);
    void cz(int a, int b);

    /** Fixed-angle rotations. */
    void rx(int q, double angle);
    void ry(int q, double angle);
    void rz(int q, double angle);
    void rzz(int a, int b, double angle);
    void rxx(int a, int b, double angle);
    void ryy(int a, int b, double angle);

    /** Parameter-bound rotations: angle = scale * theta[param] + offset. */
    void rxParam(int q, int param, double scale = 1.0);
    void ryParam(int q, int param, double scale = 1.0);
    void rzParam(int q, int param, double scale = 1.0);
    void rzzParam(int a, int b, int param, double scale = 1.0);
    void rxxParam(int a, int b, int param, double scale = 1.0);
    void ryyParam(int a, int b, int param, double scale = 1.0);

    /**
     * Append exp(-i (scale * theta[param] / 2) * P) for a Pauli string P,
     * expanded into basis changes + a CX ladder + one bound Rz. This is
     * the standard Trotter-step primitive used by the UCCSD ansatz.
     */
    void pauliExponential(const PauliString &string, int param,
                          double scale = 1.0);

    /**
     * Run the circuit on `state` with parameter vector `theta`.
     *
     * Convenience path for one-off applications: compiles the gate
     * list into a CompiledCircuit and executes it. Hot paths (Ansatz,
     * ClusterObjective) hold the program the Ansatz compiled at
     * construction and skip the per-call compile.
     */
    void apply(Statevector &state,
               const std::vector<double> &theta) const;

    /**
     * Copy of this circuit with constant offsets folded into every
     * bound gate: the copy at theta behaves like the original at
     * theta + offsets. Used to warm-start runs (e.g. CAFQA parameters,
     * Section 8.5) while keeping the optimizer's iterate at zero.
     */
    Circuit withParamOffsets(const std::vector<double> &offsets) const;

    /** Number of two-qubit gates (a depth/noise proxy). */
    std::size_t numTwoQubitGates() const;

    /**
     * Entangling layer count used by the noise model: declared explicitly
     * by the ansatz builders (e.g. 2 or 5 HEA layers), not inferred.
     */
    int entanglingLayers() const { return entanglingLayers_; }
    void setEntanglingLayers(int layers) { entanglingLayers_ = layers; }

    /** Single-line summary for logs. */
    std::string summary() const;

  private:
    void push(GateOp op, int q0, int q1, int param, double scale,
              double offset);

    int numQubits_;
    int numParams_ = 0;
    int entanglingLayers_ = 0;
    std::vector<GateInstr> gates_;
};

} // namespace treevqa

#endif // TREEVQA_CIRCUIT_CIRCUIT_H
