#include "circuit/compiled_circuit.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace treevqa {

namespace {

/** The 2x2 matrix of a single-qubit op at a given angle. */
Gate1q
gateMatrix1q(GateOp op, double angle)
{
    const double c = std::cos(angle / 2.0);
    const double s = std::sin(angle / 2.0);
    switch (op) {
      case GateOp::Rx:
        return Gate1q{Complex(c, 0), Complex(0, -s), Complex(0, -s),
                      Complex(c, 0)};
      case GateOp::Ry:
        return Gate1q{Complex(c, 0), Complex(-s, 0), Complex(s, 0),
                      Complex(c, 0)};
      case GateOp::Rz:
        return Gate1q{Complex(c, -s), Complex(0, 0), Complex(0, 0),
                      Complex(c, s)};
      case GateOp::H: {
        const double r = 1.0 / std::sqrt(2.0);
        return Gate1q{Complex(r, 0), Complex(r, 0), Complex(r, 0),
                      Complex(-r, 0)};
      }
      case GateOp::X:
        return Gate1q{Complex(0, 0), Complex(1, 0), Complex(1, 0),
                      Complex(0, 0)};
      case GateOp::S:
        return Gate1q{Complex(1, 0), Complex(0, 0), Complex(0, 0),
                      Complex(0, 1)};
      case GateOp::Sdg:
        return Gate1q{Complex(1, 0), Complex(0, 0), Complex(0, 0),
                      Complex(0, -1)};
      default:
        throw std::logic_error("not a single-qubit gate op");
    }
}

/** Diagonal by gate type, for every angle. */
bool
isDiagonalOp(GateOp op)
{
    return op == GateOp::Rz || op == GateOp::S || op == GateOp::Sdg;
}

double
boundAngle(int param_index, double scale, double offset,
           const std::vector<double> &theta)
{
    return param_index >= 0 ? scale * theta[param_index] + offset
                            : offset;
}

} // namespace

CompiledCircuit::CompiledCircuit(const Circuit &circuit)
    : numQubits_(circuit.numQubits()), numParams_(circuit.numParams()),
      entanglingLayers_(circuit.entanglingLayers()),
      gates_(circuit.gates())
{
    // The same fusion discipline as the former eager pass in
    // Circuit::apply, decided structurally so it binds to any theta:
    // single-qubit gates accumulate into a pending per-qubit run, and a
    // run of purely diagonal-type gates survives across Cz/Rzz and the
    // Cx control.
    std::vector<std::vector<FusedGateSlot>> pending(
        static_cast<std::size_t>(numQubits_));
    std::vector<char> pendingDiag(static_cast<std::size_t>(numQubits_),
                                  1);

    const auto flush = [&](int q) {
        auto &run = pending[static_cast<std::size_t>(q)];
        if (run.empty())
            return;
        CompiledOp op;
        op.kind = CompiledOp::Kind::Fused1q;
        op.q0 = q;
        op.slotBegin = static_cast<std::uint32_t>(slots_.size());
        slots_.insert(slots_.end(), run.begin(), run.end());
        op.slotEnd = static_cast<std::uint32_t>(slots_.size());
        ops_.push_back(op);
        run.clear();
        pendingDiag[static_cast<std::size_t>(q)] = 1;
    };
    const auto flushNonDiagonal = [&](int q) {
        if (!pending[static_cast<std::size_t>(q)].empty()
            && !pendingDiag[static_cast<std::size_t>(q)])
            flush(q);
    };
    const auto emit2q = [&](CompiledOp::Kind kind, const GateInstr &g) {
        CompiledOp op;
        op.kind = kind;
        op.q0 = g.q0;
        op.q1 = g.q1;
        op.paramIndex = g.paramIndex;
        op.scale = g.scale;
        op.offset = g.offset;
        ops_.push_back(op);
    };

    for (const GateInstr &g : gates_) {
        switch (g.op) {
          case GateOp::Rx:
          case GateOp::Ry:
          case GateOp::Rz:
          case GateOp::H:
          case GateOp::X:
          case GateOp::S:
          case GateOp::Sdg:
            pending[static_cast<std::size_t>(g.q0)].push_back(
                FusedGateSlot{g.op, g.paramIndex, g.scale, g.offset});
            if (!isDiagonalOp(g.op))
                pendingDiag[static_cast<std::size_t>(g.q0)] = 0;
            break;
          case GateOp::Rzz:
            flushNonDiagonal(g.q0);
            flushNonDiagonal(g.q1);
            emit2q(CompiledOp::Kind::Rzz, g);
            break;
          case GateOp::Rxx:
            flush(g.q0);
            flush(g.q1);
            emit2q(CompiledOp::Kind::Rxx, g);
            break;
          case GateOp::Ryy:
            flush(g.q0);
            flush(g.q1);
            emit2q(CompiledOp::Kind::Ryy, g);
            break;
          case GateOp::Cx:
            flushNonDiagonal(g.q0); // diagonal commutes with control
            flush(g.q1);
            emit2q(CompiledOp::Kind::Cx, g);
            break;
          case GateOp::Cz:
            flushNonDiagonal(g.q0);
            flushNonDiagonal(g.q1);
            emit2q(CompiledOp::Kind::Cz, g);
            break;
          default:
            throw std::logic_error("unhandled gate op");
        }
    }
    for (int q = 0; q < numQubits_; ++q)
        flush(q);
}

void
CompiledCircuit::execute(Statevector &state,
                         const std::vector<double> &theta) const
{
    assert(state.numQubits() == numQubits_);
    assert(static_cast<int>(theta.size()) >= numParams_);

    for (const CompiledOp &op : ops_) {
        switch (op.kind) {
          case CompiledOp::Kind::Fused1q: {
            // Accumulate the run into one 2x2 in source order, exactly
            // as the eager pass did (new gate matrix times pending).
            Gate1q m = gateMatrix1q(
                slots_[op.slotBegin].op,
                boundAngle(slots_[op.slotBegin].paramIndex,
                           slots_[op.slotBegin].scale,
                           slots_[op.slotBegin].offset, theta));
            for (std::uint32_t s = op.slotBegin + 1; s < op.slotEnd; ++s)
                m = gateMatrix1q(
                        slots_[s].op,
                        boundAngle(slots_[s].paramIndex, slots_[s].scale,
                                   slots_[s].offset, theta))
                        .after(m);
            if (m.isDiagonal())
                state.applyDiag1(op.q0, m.m00, m.m11);
            else
                state.applyGate1(op.q0, m);
            break;
          }
          case CompiledOp::Kind::Rzz:
            state.applyRzz(op.q0, op.q1,
                           boundAngle(op.paramIndex, op.scale, op.offset,
                                      theta));
            break;
          case CompiledOp::Kind::Rxx:
            state.applyRxx(op.q0, op.q1,
                           boundAngle(op.paramIndex, op.scale, op.offset,
                                      theta));
            break;
          case CompiledOp::Kind::Ryy:
            state.applyRyy(op.q0, op.q1,
                           boundAngle(op.paramIndex, op.scale, op.offset,
                                      theta));
            break;
          case CompiledOp::Kind::Cx:
            state.applyCx(op.q0, op.q1);
            break;
          case CompiledOp::Kind::Cz:
            state.applyCz(op.q0, op.q1);
            break;
        }
    }
}

} // namespace treevqa
