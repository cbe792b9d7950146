#include "circuit/compiled_circuit.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
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

/** One op of the fusion pass's output, before kernel resolution. */
struct FusedOp
{
    enum class Kind : std::uint8_t
    {
        Fused1q, ///< product of slots [slotBegin, slotEnd) on q0
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
    std::uint32_t slotBegin = 0;
    std::uint32_t slotEnd = 0;
};

/** Per-call argument storage: on the stack for programs of up to
 * kInline arguments (left uninitialised; bind writes every one). */
class ArgBuffer
{
  public:
    explicit ArgBuffer(std::size_t count)
        : heap_(count > kInline ? new KernelArg[count] : nullptr)
    {
    }

    KernelArg *data() { return heap_ ? heap_.get() : inline_; }

  private:
    static constexpr std::size_t kInline = 64;
    KernelArg inline_[kInline];
    std::unique_ptr<KernelArg[]> heap_;
};

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
    std::vector<FusedOp> ops;
    std::vector<std::vector<Slot>> pending(
        static_cast<std::size_t>(numQubits_));
    std::vector<char> pendingDiag(static_cast<std::size_t>(numQubits_),
                                  1);

    const auto flush = [&](int q) {
        auto &run = pending[static_cast<std::size_t>(q)];
        if (run.empty())
            return;
        FusedOp op;
        op.kind = FusedOp::Kind::Fused1q;
        op.q0 = q;
        op.slotBegin = static_cast<std::uint32_t>(slots_.size());
        slots_.insert(slots_.end(), run.begin(), run.end());
        op.slotEnd = static_cast<std::uint32_t>(slots_.size());
        ops.push_back(op);
        run.clear();
        pendingDiag[static_cast<std::size_t>(q)] = 1;
    };
    const auto flushNonDiagonal = [&](int q) {
        if (!pending[static_cast<std::size_t>(q)].empty()
            && !pendingDiag[static_cast<std::size_t>(q)])
            flush(q);
    };
    const auto emit2q = [&](FusedOp::Kind kind, const GateInstr &g) {
        FusedOp op;
        op.kind = kind;
        op.q0 = g.q0;
        op.q1 = g.q1;
        op.paramIndex = g.paramIndex;
        op.scale = g.scale;
        op.offset = g.offset;
        ops.push_back(op);
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
                Slot{g.op, g.paramIndex, g.scale, g.offset});
            if (!isDiagonalOp(g.op))
                pendingDiag[static_cast<std::size_t>(g.q0)] = 0;
            break;
          case GateOp::Rzz:
            flushNonDiagonal(g.q0);
            flushNonDiagonal(g.q1);
            emit2q(FusedOp::Kind::Rzz, g);
            break;
          case GateOp::Rxx:
            flush(g.q0);
            flush(g.q1);
            emit2q(FusedOp::Kind::Rxx, g);
            break;
          case GateOp::Ryy:
            flush(g.q0);
            flush(g.q1);
            emit2q(FusedOp::Kind::Ryy, g);
            break;
          case GateOp::Cx:
            flushNonDiagonal(g.q0); // diagonal commutes with control
            flush(g.q1);
            emit2q(FusedOp::Kind::Cx, g);
            break;
          case GateOp::Cz:
            flushNonDiagonal(g.q0);
            flushNonDiagonal(g.q1);
            emit2q(FusedOp::Kind::Cz, g);
            break;
          default:
            throw std::logic_error("unhandled gate op");
        }
    }
    for (int q = 0; q < numQubits_; ++q)
        flush(q);

    // Split off the product-state prefix (see the file comment): a
    // qubit's first op joins it while every earlier op is a prefix op,
    // a Cx or a Cz.
    std::vector<char> inPrefix(ops.size(), 0);
    std::size_t touched = 0;
    bool movable = true;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const FusedOp &op = ops[i];
        const std::size_t mask = (std::size_t{1} << op.q0)
            | (op.q1 >= 0 ? std::size_t{1} << op.q1 : 0);
        if (op.kind == FusedOp::Kind::Fused1q) {
            inPrefix[i] = movable && !(touched & mask);
            movable = movable && inPrefix[i];
        } else if (op.kind != FusedOp::Kind::Cx
                   && op.kind != FusedOp::Kind::Cz) {
            movable = false;
        }
        touched |= mask;
    }

    // Resolve each op to its kernel, masks and argument slot, prefix
    // ops first. Fixed arguments are numbered from 0 here and moved
    // past the bound ones once their count is known.
    std::vector<char> fixed;
    const auto resolve = [&](const FusedOp &op) {
        TableOp t{nullptr, std::size_t{1} << op.q0,
                  op.q1 >= 0 ? std::size_t{1} << op.q1 : 0, 0};
        bool bound = true; // Cx and Cz read no argument
        switch (op.kind) {
          case FusedOp::Kind::Fused1q: {
            bool diagonal = true;
            bound = false;
            for (std::uint32_t s = op.slotBegin; s < op.slotEnd; ++s) {
                bound = bound || slots_[s].paramIndex >= 0;
                diagonal = diagonal && isDiagonalOp(slots_[s].op);
            }
            if (bound) {
                t.arg = static_cast<std::uint32_t>(boundArgs_++);
                boundRuns_.push_back(
                    BoundRun{op.slotBegin, op.slotEnd, t.arg});
            } else {
                // Multiplied out once, with the per-call product's
                // bits; its kernel follows the product's values.
                const Gate1q m = runMatrix(slots_.data() + op.slotBegin,
                                           slots_.data() + op.slotEnd,
                                           {});
                diagonal = m.isDiagonal();
                t.arg = static_cast<std::uint32_t>(fixedArgs_.size());
                fixedArgs_.push_back(packGate(m));
            }
            t.kernel = resolveKernel(diagonal ? KernelKind::Diag1
                                              : KernelKind::Gate1,
                                     op.q0);
            break;
          }
          case FusedOp::Kind::Rzz:
          case FusedOp::Kind::Rxx:
          case FusedOp::Kind::Ryy:
            bound = op.paramIndex >= 0;
            if (bound) {
                t.arg = static_cast<std::uint32_t>(boundArgs_++);
                boundAngles_.push_back(BoundAngle{
                    op.paramIndex, op.scale, op.offset, t.arg});
            } else {
                t.arg = static_cast<std::uint32_t>(fixedArgs_.size());
                fixedArgs_.push_back(packRotation(op.offset));
            }
            t.kernel = resolveKernel(
                op.kind == FusedOp::Kind::Rzz   ? KernelKind::Rzz
                : op.kind == FusedOp::Kind::Rxx ? KernelKind::Rxx
                                                : KernelKind::Ryy,
                op.q0, op.q1);
            break;
          case FusedOp::Kind::Cx:
            t.kernel = resolveKernel(KernelKind::Cx, op.q0, op.q1);
            break;
          case FusedOp::Kind::Cz:
            t.kernel = resolveKernel(KernelKind::Cz, op.q0, op.q1);
            break;
        }
        table_.push_back(t);
        fixed.push_back(!bound);
    };
    for (const bool prefix : {true, false})
        for (std::size_t i = 0; i < ops.size(); ++i)
            if ((inPrefix[i] != 0) == prefix)
                resolve(ops[i]);
    prefixOps_ = static_cast<std::size_t>(
        std::count(inPrefix.begin(), inPrefix.end(), 1));
    for (std::size_t i = 0; i < table_.size(); ++i)
        if (fixed[i])
            table_[i].arg += static_cast<std::uint32_t>(boundArgs_);
}

Gate1q
CompiledCircuit::runMatrix(const Slot *first, const Slot *last,
                           const std::vector<double> &theta)
{
    // Accumulate the run into one 2x2 in source order, exactly as the
    // eager pass did (new gate matrix times pending).
    Gate1q m = gateMatrix1q(
        first->op,
        boundAngle(first->paramIndex, first->scale, first->offset,
                   theta));
    for (const Slot *s = first + 1; s < last; ++s)
        m = gateMatrix1q(s->op, boundAngle(s->paramIndex, s->scale,
                                           s->offset, theta))
                .after(m);
    return m;
}

void
CompiledCircuit::bind(const std::vector<double> &theta,
                      KernelArg *args) const
{
    for (const BoundRun &run : boundRuns_)
        args[run.arg] = packGate(runMatrix(slots_.data() + run.begin,
                                           slots_.data() + run.end,
                                           theta));
    for (const BoundAngle &angle : boundAngles_)
        args[angle.arg] = packRotation(boundAngle(
            angle.paramIndex, angle.scale, angle.offset, theta));
    std::copy(fixedArgs_.begin(), fixedArgs_.end(), args + boundArgs_);
}

void
CompiledCircuit::run(Statevector &state, const KernelArg *args,
                     std::size_t first) const
{
    Complex *amps = state.amplitudes().data();
    const std::size_t dim = state.dim();
    for (std::size_t i = first; i < table_.size(); ++i) {
        const TableOp &op = table_[i];
        op.kernel(amps, dim, op.abit, op.bbit, args[op.arg]);
    }
}

void
CompiledCircuit::execute(Statevector &state,
                         const std::vector<double> &theta,
                         std::uint64_t initial_bits) const
{
    assert(state.numQubits() == numQubits_);
    assert(static_cast<int>(theta.size()) >= numParams_);
    assert(initial_bits < state.dim());

    ArgBuffer args(std::max<std::size_t>(numArgs(), 1));
    bind(theta, args.data());
    ProductFactor factors[64];
    for (std::size_t i = 0; i < prefixOps_; ++i)
        factors[i] = ProductFactor{table_[i].abit,
                                   args.data() + table_[i].arg};
    buildProductState(state.amplitudes().data(), state.dim(),
                      initial_bits, factors, prefixOps_);
    run(state, args.data(), prefixOps_);
}

void
CompiledCircuit::apply(Statevector &state,
                       const std::vector<double> &theta) const
{
    assert(state.numQubits() == numQubits_);
    assert(static_cast<int>(theta.size()) >= numParams_);

    ArgBuffer args(std::max<std::size_t>(numArgs(), 1));
    bind(theta, args.data());
    run(state, args.data(), 0);
}

} // namespace treevqa
