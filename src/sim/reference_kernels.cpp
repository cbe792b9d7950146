#include "sim/reference_kernels.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <unordered_map>

namespace treevqa {

namespace {

Gate2q
identity4()
{
    Gate2q m{};
    m[0] = m[5] = m[10] = m[15] = Complex(1.0, 0.0);
    return m;
}

} // namespace

Gate2q
rxxMatrix(double theta)
{
    const double c = std::cos(theta / 2.0);
    const Complex mis(0.0, -std::sin(theta / 2.0));
    Gate2q m{};
    m[0 * 4 + 0] = m[1 * 4 + 1] = m[2 * 4 + 2] = m[3 * 4 + 3] =
        Complex(c, 0.0);
    m[0 * 4 + 3] = m[3 * 4 + 0] = mis;
    m[1 * 4 + 2] = m[2 * 4 + 1] = mis;
    return m;
}

Gate2q
ryyMatrix(double theta)
{
    const double c = std::cos(theta / 2.0);
    const Complex is(0.0, std::sin(theta / 2.0));
    Gate2q m{};
    m[0 * 4 + 0] = m[1 * 4 + 1] = m[2 * 4 + 2] = m[3 * 4 + 3] =
        Complex(c, 0.0);
    m[0 * 4 + 3] = m[3 * 4 + 0] = is;
    m[1 * 4 + 2] = m[2 * 4 + 1] = -is;
    return m;
}

Gate2q
rzzMatrix(double theta)
{
    const Complex e_neg = std::polar(1.0, -theta / 2.0);
    const Complex e_pos = std::polar(1.0, theta / 2.0);
    Gate2q m{};
    m[0 * 4 + 0] = e_neg;
    m[1 * 4 + 1] = e_pos;
    m[2 * 4 + 2] = e_pos;
    m[3 * 4 + 3] = e_neg;
    return m;
}

Gate2q
cxMatrix()
{
    // q0 = control: basis states 1 (01) and 3 (11) swap the q1 bit.
    Gate2q m{};
    m[0 * 4 + 0] = m[2 * 4 + 2] = Complex(1.0, 0.0);
    m[1 * 4 + 3] = m[3 * 4 + 1] = Complex(1.0, 0.0);
    return m;
}

Gate2q
czMatrix()
{
    Gate2q m = identity4();
    m[3 * 4 + 3] = Complex(-1.0, 0.0);
    return m;
}

void
refApplyGate2(Statevector &state, int q0, int q1, const Gate2q &gate)
{
    assert(q0 != q1);
    CVector &amps = state.amplitudes();
    const std::size_t b0 = std::size_t{1} << q0;
    const std::size_t b1 = std::size_t{1} << q1;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        if (i & (b0 | b1))
            continue; // visit each 4-block once, from its 00 corner
        const std::size_t idx[4] = {i, i | b0, i | b1, i | b0 | b1};
        Complex in[4], out[4];
        for (int j = 0; j < 4; ++j)
            in[j] = amps[idx[j]];
        for (int r = 0; r < 4; ++r) {
            out[r] = Complex(0.0, 0.0);
            for (int c = 0; c < 4; ++c)
                out[r] += gate[r * 4 + c] * in[c];
        }
        for (int j = 0; j < 4; ++j)
            amps[idx[j]] = out[j];
    }
}

double
refExpectation(const Statevector &state, const PauliString &string)
{
    assert(string.numQubits() == state.numQubits());
    const CVector &amps = state.amplitudes();
    const std::uint64_t xm = string.xMask();
    const std::uint64_t zm = string.zMask();

    static const Complex kPhases[4] = {
        Complex(1, 0), Complex(0, 1), Complex(-1, 0), Complex(0, -1)};
    const Complex base = kPhases[string.yCount() % 4];

    Complex acc(0.0, 0.0);
    for (std::size_t b = 0; b < amps.size(); ++b) {
        const int sign = std::popcount(b & zm) & 1 ? -1 : 1;
        acc += std::conj(amps[b ^ xm]) * static_cast<double>(sign)
             * amps[b];
    }
    return std::real(base * acc);
}

double
refSumExpectation(const PauliSum &sum, const CVector &x)
{
    const std::size_t dim = std::size_t{1} << sum.numQubits();
    assert(x.size() == dim);

    static const Complex kPhases[4] = {
        Complex(1, 0), Complex(0, 1), Complex(-1, 0), Complex(0, -1)};

    Complex total(0.0, 0.0);
    for (const auto &term : sum.terms()) {
        const std::uint64_t xm = term.string.xMask();
        const std::uint64_t zm = term.string.zMask();
        const Complex base = kPhases[term.string.yCount() % 4];
        Complex acc(0.0, 0.0);
        for (std::size_t b = 0; b < dim; ++b) {
            const int sign = std::popcount(b & zm) & 1 ? -1 : 1;
            acc += std::conj(x[b ^ xm]) * static_cast<double>(sign) * x[b];
        }
        total += term.coefficient * base * acc;
    }
    return std::real(total);
}

void
refApplyGate1(Statevector &state, int q, const Gate1q &gate)
{
    CVector &amps = state.amplitudes();
    const std::size_t bit = std::size_t{1} << q;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        if (i & bit)
            continue;
        const Complex a0 = amps[i];
        const Complex a1 = amps[i | bit];
        amps[i] = gate.m00 * a0 + gate.m01 * a1;
        amps[i | bit] = gate.m10 * a0 + gate.m11 * a1;
    }
}

void
refApplyX(Statevector &state, int q)
{
    CVector &amps = state.amplitudes();
    const std::size_t bit = std::size_t{1} << q;
    for (std::size_t i = 0; i < amps.size(); ++i)
        if (!(i & bit))
            std::swap(amps[i], amps[i | bit]);
}

void
refApplyZ(Statevector &state, int q)
{
    CVector &amps = state.amplitudes();
    const std::size_t bit = std::size_t{1} << q;
    for (std::size_t i = 0; i < amps.size(); ++i)
        if (i & bit)
            amps[i] = -amps[i];
}

void
refApplyS(Statevector &state, int q)
{
    CVector &amps = state.amplitudes();
    const std::size_t bit = std::size_t{1} << q;
    for (std::size_t i = 0; i < amps.size(); ++i)
        if (i & bit)
            amps[i] *= Complex(0, 1);
}

void
refApplySdg(Statevector &state, int q)
{
    CVector &amps = state.amplitudes();
    const std::size_t bit = std::size_t{1} << q;
    for (std::size_t i = 0; i < amps.size(); ++i)
        if (i & bit)
            amps[i] *= Complex(0, -1);
}

void
refApplyH(Statevector &state, int q)
{
    CVector &amps = state.amplitudes();
    const double r = 1.0 / std::sqrt(2.0);
    const std::size_t stride = std::size_t{1} << q;
    for (std::size_t base = 0; base < amps.size(); base += 2 * stride) {
        for (std::size_t offset = 0; offset < stride; ++offset) {
            const std::size_t i0 = base + offset;
            const std::size_t i1 = i0 + stride;
            const Complex a0 = amps[i0];
            const Complex a1 = amps[i1];
            amps[i0] = r * (a0 + a1);
            amps[i1] = r * (a0 - a1);
        }
    }
}

void
refApplyCx(Statevector &state, int control, int target)
{
    CVector &amps = state.amplitudes();
    const std::size_t cbit = std::size_t{1} << control;
    const std::size_t tbit = std::size_t{1} << target;
    for (std::size_t i = 0; i < amps.size(); ++i)
        if ((i & cbit) && !(i & tbit))
            std::swap(amps[i], amps[i | tbit]);
}

void
refApplyRzz(Statevector &state, int a, int b, double theta)
{
    CVector &amps = state.amplitudes();
    const Complex e_neg = std::polar(1.0, -theta / 2.0);
    const Complex e_pos = std::polar(1.0, theta / 2.0);
    const std::size_t abit = std::size_t{1} << a;
    const std::size_t bbit = std::size_t{1} << b;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        const bool za = i & abit;
        const bool zb = i & bbit;
        amps[i] *= (za == zb) ? e_neg : e_pos;
    }
}

void
refApplyRxx(Statevector &state, int a, int b, double theta)
{
    refApplyH(state, a);
    refApplyH(state, b);
    refApplyRzz(state, a, b, theta);
    refApplyH(state, a);
    refApplyH(state, b);
}

void
refApplyRyy(Statevector &state, int a, int b, double theta)
{
    refApplySdg(state, a);
    refApplySdg(state, b);
    refApplyH(state, a);
    refApplyH(state, b);
    refApplyRzz(state, a, b, theta);
    refApplyH(state, a);
    refApplyH(state, b);
    refApplyS(state, a);
    refApplyS(state, b);
}

std::vector<double>
refPerStringExpectations(const Statevector &state,
                         const std::vector<PauliString> &strings)
{
    static const Complex kPhases[4] = {
        Complex(1, 0), Complex(0, 1), Complex(-1, 0), Complex(0, -1)};

    const CVector &amps = state.amplitudes();
    const std::size_t dim = amps.size();
    std::vector<double> out(strings.size(), 0.0);

    std::unordered_map<std::uint64_t, std::vector<std::size_t>> groups;
    groups.reserve(strings.size());
    for (std::size_t k = 0; k < strings.size(); ++k)
        groups[strings[k].xMask()].push_back(k);

    std::vector<Complex> acc;
    for (const auto &[xm, members] : groups) {
        acc.assign(members.size(), Complex(0.0, 0.0));
        if (xm == 0) {
            for (std::size_t b = 0; b < dim; ++b) {
                const double p = std::norm(amps[b]);
                if (p == 0.0)
                    continue;
                for (std::size_t m = 0; m < members.size(); ++m) {
                    const std::uint64_t zm = strings[members[m]].zMask();
                    const int sign = std::popcount(b & zm) & 1 ? -1 : 1;
                    acc[m] += sign * p;
                }
            }
        } else {
            for (std::size_t b = 0; b < dim; ++b) {
                const Complex t = std::conj(amps[b ^ xm]) * amps[b];
                if (t == Complex(0.0, 0.0))
                    continue;
                for (std::size_t m = 0; m < members.size(); ++m) {
                    const std::uint64_t zm = strings[members[m]].zMask();
                    const int sign = std::popcount(b & zm) & 1 ? -1 : 1;
                    acc[m] += static_cast<double>(sign) * t;
                }
            }
        }
        for (std::size_t m = 0; m < members.size(); ++m) {
            const PauliString &s = strings[members[m]];
            if (s.isIdentity()) {
                out[members[m]] = 1.0;
                continue;
            }
            out[members[m]] =
                std::real(kPhases[s.yCount() % 4] * acc[m]);
        }
    }
    return out;
}

} // namespace treevqa
