#include "paulprop/pauli_propagation.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace treevqa {

namespace {

/** Coefficient slots per live string: one per observable. */
using SlotVector = std::vector<double>;
using TermMap =
    std::unordered_map<PauliString, SlotVector, PauliStringHash>;

double
maxAbs(const SlotVector &v)
{
    double m = 0.0;
    for (double x : v)
        m = std::max(m, std::fabs(x));
    return m;
}

/** Single-qubit Clifford conjugations G^dag P G as (x,z,sign) maps. */
void
conjugateH(PauliString &p, int q, double &sign)
{
    // H: X <-> Z, Y -> -Y.
    const std::uint64_t bit = 1ull << q;
    const bool x = p.xMask() & bit;
    const bool z = p.zMask() & bit;
    if (x && z) {
        sign = -sign;
        return;
    }
    if (x != z) {
        p = PauliString(p.numQubits(), p.xMask() ^ bit, p.zMask() ^ bit);
    }
}

void
conjugateSdg(PauliString &p, int q, double &sign)
{
    // S^dag P S: X -> -Y, Y -> X, Z -> Z.
    const std::uint64_t bit = 1ull << q;
    const bool x = p.xMask() & bit;
    const bool z = p.zMask() & bit;
    if (x && !z) {
        p = PauliString(p.numQubits(), p.xMask(), p.zMask() | bit);
        sign = -sign;
    } else if (x && z) {
        p = PauliString(p.numQubits(), p.xMask(), p.zMask() ^ bit);
    }
}

void
conjugateS(PauliString &p, int q, double &sign)
{
    // S P S^dag: X -> Y, Y -> -X, Z -> Z.
    const std::uint64_t bit = 1ull << q;
    const bool x = p.xMask() & bit;
    const bool z = p.zMask() & bit;
    if (x && !z) {
        p = PauliString(p.numQubits(), p.xMask(), p.zMask() | bit);
    } else if (x && z) {
        p = PauliString(p.numQubits(), p.xMask(), p.zMask() ^ bit);
        sign = -sign;
    }
}

void
conjugateX(PauliString &p, int q, double &sign)
{
    // X P X: Z -> -Z, Y -> -Y.
    const std::uint64_t bit = 1ull << q;
    if (p.zMask() & bit)
        sign = -sign;
}

void
conjugateCx(PauliString &p, int control, int target, double &sign)
{
    // CX P CX: x_t ^= x_c, z_c ^= z_t; sign flips iff
    // x_c & z_t & (x_t == z_c).
    const std::uint64_t cbit = 1ull << control;
    const std::uint64_t tbit = 1ull << target;
    const bool xc = p.xMask() & cbit;
    const bool zc = p.zMask() & cbit;
    const bool xt = p.xMask() & tbit;
    const bool zt = p.zMask() & tbit;
    if (xc && zt && (xt == zc))
        sign = -sign;
    std::uint64_t xm = p.xMask();
    std::uint64_t zm = p.zMask();
    if (xc)
        xm ^= tbit;
    if (zt)
        zm ^= cbit;
    p = PauliString(p.numQubits(), xm, zm);
}

void
conjugateCz(PauliString &p, int a, int b, double &sign)
{
    // CZ P CZ: X_a -> X_a Z_b, X_b -> Z_a X_b; sign -1 iff both qubits
    // carry X-type operators (from X x X -> Y x Y-like products).
    const std::uint64_t abit = 1ull << a;
    const std::uint64_t bbit = 1ull << b;
    const bool xa = p.xMask() & abit;
    const bool xb = p.xMask() & bbit;
    const bool za = p.zMask() & abit;
    const bool zb = p.zMask() & bbit;
    std::uint64_t zm = p.zMask();
    if (xa)
        zm ^= bbit;
    if (xb)
        zm ^= abit;
    // Recanonicalization phase: -1 iff both qubits carry X-type
    // operators and their Z components differ (e.g. Y(x)X -> -X(x)Y).
    if (xa && xb && (za != zb))
        sign = -sign;
    p = PauliString(p.numQubits(), p.xMask(), zm);
}

/** The rotation generator of a parameterizable gate, or identity for
 * Cliffords. */
PauliString
rotationGenerator(const GateInstr &g, int num_qubits)
{
    PauliString p(num_qubits);
    switch (g.op) {
      case GateOp::Rx:
        p.setOp(g.q0, 'X');
        break;
      case GateOp::Ry:
        p.setOp(g.q0, 'Y');
        break;
      case GateOp::Rz:
        p.setOp(g.q0, 'Z');
        break;
      case GateOp::Rzz:
        p.setOp(g.q0, 'Z');
        p.setOp(g.q1, 'Z');
        break;
      case GateOp::Rxx:
        p.setOp(g.q0, 'X');
        p.setOp(g.q1, 'X');
        break;
      case GateOp::Ryy:
        p.setOp(g.q0, 'Y');
        p.setOp(g.q1, 'Y');
        break;
      default:
        break;
    }
    return p;
}

} // namespace

PauliPropagator::PauliPropagator(
    std::shared_ptr<const CompiledCircuit> program,
    PauliPropConfig config)
    : program_(std::move(program)), config_(config)
{
    assert(program_);
}

PauliPropagator::PauliPropagator(const Circuit &circuit,
                                 PauliPropConfig config)
    : PauliPropagator(std::make_shared<const CompiledCircuit>(circuit),
                      config)
{
}

std::vector<double>
PauliPropagator::expectations(const std::vector<double> &theta,
                              const std::vector<PauliSum> &observables,
                              std::uint64_t initial_bits) const
{
    assert(!observables.empty());
    const int n = program_->numQubits();
    const std::size_t slots = observables.size();

    // Seed the live map with all observables' terms.
    TermMap live;
    for (std::size_t k = 0; k < slots; ++k) {
        assert(observables[k].numQubits() == n);
        for (const auto &term : observables[k].terms()) {
            auto [it, inserted] =
                live.try_emplace(term.string, SlotVector(slots, 0.0));
            it->second[k] += term.coefficient;
        }
    }

    // Back-propagate: O <- G^dag O G for gates in reverse order. Each
    // gate emits the transformed terms in live-map order into one
    // buffer, reused across gates to amortize allocation.
    std::vector<std::pair<PauliString, SlotVector>> emitted;

    const auto &gates = program_->gates();
    for (auto git = gates.rbegin(); git != gates.rend(); ++git) {
        const GateInstr &g = *git;
        const bool is_rotation =
            g.op == GateOp::Rx || g.op == GateOp::Ry
            || g.op == GateOp::Rz || g.op == GateOp::Rzz
            || g.op == GateOp::Rxx || g.op == GateOp::Ryy;

        emitted.clear();
        if (is_rotation) {
            const double angle = (g.paramIndex >= 0)
                ? g.scale * theta[g.paramIndex] + g.offset
                : g.offset;
            const PauliString gen = rotationGenerator(g, n);
            const double c = std::cos(angle);
            const double sn = std::sin(angle);
            for (auto &[string, coefs] : live) {
                if (string.commutesWith(gen)) {
                    emitted.emplace_back(string, std::move(coefs));
                    continue;
                }
                // Q -> cos Q + sin (i P Q); i*phase is real for
                // anticommuting P, Q.
                PauliProduct pq = multiply(gen, string);
                const Complex iphase = Complex(0, 1) * pq.phase;
                assert(std::fabs(iphase.imag()) < 1e-12);
                const double branch_sign = iphase.real();

                SlotVector cos_branch(slots);
                SlotVector sin_branch(slots);
                for (std::size_t k = 0; k < slots; ++k) {
                    cos_branch[k] = c * coefs[k];
                    sin_branch[k] = sn * branch_sign * coefs[k];
                }
                emitted.emplace_back(string, std::move(cos_branch));
                emitted.emplace_back(pq.string, std::move(sin_branch));
            }
        } else {
            for (auto &[string, coefs] : live) {
                PauliString p = string;
                double sign = 1.0;
                switch (g.op) {
                  case GateOp::H:
                    conjugateH(p, g.q0, sign);
                    break;
                  case GateOp::X:
                    conjugateX(p, g.q0, sign);
                    break;
                  case GateOp::S:
                    // Back-propagation applies G^dag P G, G = S.
                    conjugateSdg(p, g.q0, sign);
                    break;
                  case GateOp::Sdg:
                    conjugateS(p, g.q0, sign);
                    break;
                  case GateOp::Cx:
                    conjugateCx(p, g.q0, g.q1, sign);
                    break;
                  case GateOp::Cz:
                    conjugateCz(p, g.q0, g.q1, sign);
                    break;
                  default:
                    throw std::logic_error(
                        "PauliPropagator: unsupported gate");
                }
                if (sign != 1.0)
                    for (auto &x : coefs)
                        x = sign * x;
                emitted.emplace_back(std::move(p), std::move(coefs));
            }
        }

        // Fold duplicates in emission order, then refill the live map
        // with the survivors of truncation (weight cap + coefficient
        // threshold).
        TermMap next;
        next.reserve(emitted.size());
        for (auto &[string, coefs] : emitted) {
            auto [it, inserted] = next.try_emplace(string, std::move(coefs));
            if (!inserted)
                for (std::size_t k = 0; k < slots; ++k)
                    it->second[k] += coefs[k];
        }
        live.clear();
        for (auto &[string, coefs] : next) {
            if (string.weight() > config_.maxWeight)
                continue;
            if (maxAbs(coefs) < config_.coefThreshold)
                continue;
            live.emplace(string, std::move(coefs));
        }

        // Hard cap: keep the heaviest strings.
        if (live.size() > config_.maxTerms) {
            std::vector<std::pair<double, PauliString>> ranked;
            ranked.reserve(live.size());
            for (const auto &[string, coefs] : live)
                ranked.emplace_back(maxAbs(coefs), string);
            std::nth_element(
                ranked.begin(), ranked.begin() + config_.maxTerms,
                ranked.end(),
                [](const auto &a, const auto &b) {
                    return a.first > b.first;
                });
            for (std::size_t i = config_.maxTerms; i < ranked.size(); ++i)
                live.erase(ranked[i].second);
        }
    }
    lastTermCount_ = live.size();

    // <b|O'|b>: only Z-diagonal strings survive.
    std::vector<double> out(slots, 0.0);
    for (const auto &[string, coefs] : live) {
        if (string.xMask() != 0)
            continue;
        const int sign =
            std::popcount(initial_bits & string.zMask()) & 1 ? -1 : 1;
        for (std::size_t k = 0; k < slots; ++k)
            out[k] += sign * coefs[k];
    }
    return out;
}

double
PauliPropagator::expectation(const std::vector<double> &theta,
                             const PauliSum &observable,
                             std::uint64_t initial_bits) const
{
    return expectations(theta, {observable}, initial_bits).front();
}

} // namespace treevqa
