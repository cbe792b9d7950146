#include "circuit/circuit.h"

#include <cassert>
#include <sstream>

#include "circuit/compiled_circuit.h"

namespace treevqa {

Circuit::Circuit(int num_qubits)
    : numQubits_(num_qubits)
{
    assert(num_qubits >= 0);
}

int
Circuit::addParam()
{
    return numParams_++;
}

void
Circuit::push(GateOp op, int q0, int q1, int param, double scale,
              double offset)
{
    assert(q0 >= 0 && q0 < numQubits_);
    assert(q1 == -1 || (q1 >= 0 && q1 < numQubits_ && q1 != q0));
    assert(param == -1 || param < numParams_);
    gates_.push_back(GateInstr{op, q0, q1, param, scale, offset});
}

void Circuit::h(int q) { push(GateOp::H, q, -1, -1, 0, 0); }
void Circuit::x(int q) { push(GateOp::X, q, -1, -1, 0, 0); }
void Circuit::s(int q) { push(GateOp::S, q, -1, -1, 0, 0); }
void Circuit::sdg(int q) { push(GateOp::Sdg, q, -1, -1, 0, 0); }

void
Circuit::cx(int control, int target)
{
    push(GateOp::Cx, control, target, -1, 0, 0);
}

void
Circuit::cz(int a, int b)
{
    push(GateOp::Cz, a, b, -1, 0, 0);
}

void Circuit::rx(int q, double a) { push(GateOp::Rx, q, -1, -1, 0, a); }
void Circuit::ry(int q, double a) { push(GateOp::Ry, q, -1, -1, 0, a); }
void Circuit::rz(int q, double a) { push(GateOp::Rz, q, -1, -1, 0, a); }

void
Circuit::rzz(int a, int b, double angle)
{
    push(GateOp::Rzz, a, b, -1, 0, angle);
}

void
Circuit::rxx(int a, int b, double angle)
{
    push(GateOp::Rxx, a, b, -1, 0, angle);
}

void
Circuit::ryy(int a, int b, double angle)
{
    push(GateOp::Ryy, a, b, -1, 0, angle);
}

void
Circuit::rxParam(int q, int param, double scale)
{
    push(GateOp::Rx, q, -1, param, scale, 0);
}

void
Circuit::ryParam(int q, int param, double scale)
{
    push(GateOp::Ry, q, -1, param, scale, 0);
}

void
Circuit::rzParam(int q, int param, double scale)
{
    push(GateOp::Rz, q, -1, param, scale, 0);
}

void
Circuit::rzzParam(int a, int b, int param, double scale)
{
    push(GateOp::Rzz, a, b, param, scale, 0);
}

void
Circuit::rxxParam(int a, int b, int param, double scale)
{
    push(GateOp::Rxx, a, b, param, scale, 0);
}

void
Circuit::ryyParam(int a, int b, int param, double scale)
{
    push(GateOp::Ryy, a, b, param, scale, 0);
}

void
Circuit::pauliExponential(const PauliString &string, int param,
                          double scale)
{
    assert(string.numQubits() == numQubits_);
    if (string.isIdentity())
        return; // global phase only

    // Collect support and rotate each qubit into the Z basis:
    // X -> H, Y -> Sdg then H.
    std::vector<int> support;
    for (int q = 0; q < numQubits_; ++q) {
        const char op = string.opAt(q);
        if (op == 'I')
            continue;
        support.push_back(q);
        if (op == 'X') {
            h(q);
        } else if (op == 'Y') {
            sdg(q);
            h(q);
        }
    }

    // Parity ladder onto the last support qubit, bound Rz, then undo.
    for (std::size_t i = 0; i + 1 < support.size(); ++i)
        cx(support[i], support[i + 1]);
    rzParam(support.back(), param, scale);
    for (std::size_t i = support.size() - 1; i >= 1; --i)
        cx(support[i - 1], support[i]);

    for (int q : support) {
        const char op = string.opAt(q);
        if (op == 'X') {
            h(q);
        } else if (op == 'Y') {
            h(q);
            s(q);
        }
    }
}

void
Circuit::apply(Statevector &state, const std::vector<double> &theta) const
{
    assert(state.numQubits() == numQubits_);
    assert(static_cast<int>(theta.size()) >= numParams_);

    // The fusion pass lives in CompiledCircuit; compiling here keeps
    // apply() a one-call convenience while the hot paths reuse the
    // program their Ansatz compiled once (see Ansatz::compiled).
    CompiledCircuit(*this).apply(state, theta);
}

Circuit
Circuit::withParamOffsets(const std::vector<double> &offsets) const
{
    assert(static_cast<int>(offsets.size()) >= numParams_);
    Circuit shifted = *this;
    for (auto &g : shifted.gates_)
        if (g.paramIndex >= 0)
            g.offset += g.scale * offsets[g.paramIndex];
    return shifted;
}

std::size_t
Circuit::numTwoQubitGates() const
{
    std::size_t n = 0;
    for (const auto &g : gates_)
        if (g.q1 >= 0)
            ++n;
    return n;
}

std::string
Circuit::summary() const
{
    std::ostringstream os;
    os << "Circuit(" << numQubits_ << "q, " << gates_.size() << " gates, "
       << numParams_ << " params, " << numTwoQubitGates() << " 2q-gates)";
    return os.str();
}

} // namespace treevqa
