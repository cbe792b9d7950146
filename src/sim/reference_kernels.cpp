#include "sim/reference_kernels.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <numeric>
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

namespace {

/** Frobenius norm of the strict upper triangle. */
double
refOffDiagonalNorm(const Matrix &a)
{
    double s = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = i + 1; j < a.cols(); ++j)
            s += a(i, j) * a(i, j);
    return std::sqrt(s);
}

} // namespace

EigenDecomposition
refJacobiEigen(const Matrix &a_in, double tol, int max_sweeps)
{
    assert(a_in.rows() == a_in.cols());
    assert(a_in.isSymmetric(1e-9));

    const std::size_t n = a_in.rows();
    Matrix a = a_in;
    Matrix v = Matrix::identity(n);

    EigenDecomposition out;
    out.converged = false;

    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        if (refOffDiagonalNorm(a) < tol) {
            out.converged = true;
            out.sweeps = sweep;
            break;
        }
        for (std::size_t p = 0; p + 1 < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                const double apq = a(p, q);
                if (std::fabs(apq) < 1e-300)
                    continue;
                const double app = a(p, p);
                const double aqq = a(q, q);
                const double theta = (aqq - app) / (2.0 * apq);
                // Stable tangent of the rotation angle.
                const double t = (theta >= 0.0)
                    ? 1.0 / (theta + std::sqrt(1.0 + theta * theta))
                    : 1.0 / (theta - std::sqrt(1.0 + theta * theta));
                const double c = 1.0 / std::sqrt(1.0 + t * t);
                const double s = t * c;

                for (std::size_t k = 0; k < n; ++k) {
                    const double akp = a(k, p);
                    const double akq = a(k, q);
                    a(k, p) = c * akp - s * akq;
                    a(k, q) = s * akp + c * akq;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const double apk = a(p, k);
                    const double aqk = a(q, k);
                    a(p, k) = c * apk - s * aqk;
                    a(q, k) = s * apk + c * aqk;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const double vkp = v(k, p);
                    const double vkq = v(k, q);
                    v(k, p) = c * vkp - s * vkq;
                    v(k, q) = s * vkp + c * vkq;
                }
            }
        }
        out.sweeps = sweep + 1;
    }
    if (!out.converged && refOffDiagonalNorm(a) < tol)
        out.converged = true;

    // Sort eigenpairs ascending.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
        return a(i, i) < a(j, j);
    });

    out.values.resize(n);
    out.vectors = Matrix(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        out.values[j] = a(order[j], order[j]);
        for (std::size_t i = 0; i < n; ++i)
            out.vectors(i, j) = v(i, order[j]);
    }
    return out;
}

namespace {

double
refCnorm(const CVector &v)
{
    double s = 0.0;
    for (const auto &z : v)
        s += std::norm(z);
    return std::sqrt(s);
}

Complex
refCdot(const CVector &a, const CVector &b)
{
    Complex s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        s += std::conj(a[i]) * b[i];
    return s;
}

void
refNormalize(CVector &v)
{
    const double n = refCnorm(v);
    if (n == 0.0)
        return;
    for (auto &z : v)
        z /= n;
}

LanczosResult
refLanczosPass(std::size_t dim, const MatVec &matvec, const CVector &start,
               int max_krylov, double tol)
{
    std::vector<CVector> basis;
    std::vector<double> alpha;
    std::vector<double> beta; // beta[j] couples basis[j] and basis[j+1]

    CVector q = start;
    refNormalize(q);
    basis.push_back(q);

    CVector w(dim);
    LanczosResult out;

    for (int j = 0; j < max_krylov; ++j) {
        matvec(basis[j], w);
        const double a = std::real(refCdot(basis[j], w));
        alpha.push_back(a);

        // w -= alpha_j q_j + beta_{j-1} q_{j-1}; then full reorth.
        for (std::size_t i = 0; i < dim; ++i)
            w[i] -= a * basis[j][i];
        if (j > 0)
            for (std::size_t i = 0; i < dim; ++i)
                w[i] -= beta[j - 1] * basis[j - 1][i];
        for (const auto &qk : basis) {
            const Complex c = refCdot(qk, w);
            if (std::abs(c) > 1e-14)
                for (std::size_t i = 0; i < dim; ++i)
                    w[i] -= c * qk[i];
        }

        const double b = refCnorm(w);
        if (b < 1e-12 || j == max_krylov - 1) {
            // Krylov space exhausted (invariant subspace) or cap hit.
            break;
        }
        beta.push_back(b);
        CVector next(dim);
        for (std::size_t i = 0; i < dim; ++i)
            next[i] = w[i] / b;
        basis.push_back(std::move(next));
    }

    const std::size_t m = alpha.size();
    out.krylovDim = static_cast<int>(m);

    // Diagonalize the tridiagonal Rayleigh matrix with the dense Jacobi
    // solver.
    Matrix t(m, m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
        t(i, i) = alpha[i];
        if (i + 1 < m) {
            t(i, i + 1) = beta[i];
            t(i + 1, i) = beta[i];
        }
    }
    EigenDecomposition ed = refJacobiEigen(t);
    out.eigenvalue = ed.values[0];

    out.eigenvector.assign(dim, Complex(0.0, 0.0));
    for (std::size_t j = 0; j < m; ++j) {
        const double coef = ed.vectors(j, 0);
        for (std::size_t i = 0; i < dim; ++i)
            out.eigenvector[i] += coef * basis[j][i];
    }
    refNormalize(out.eigenvector);

    matvec(out.eigenvector, w);
    for (std::size_t i = 0; i < dim; ++i)
        w[i] -= out.eigenvalue * out.eigenvector[i];
    out.residual = refCnorm(w);
    out.converged = out.residual < tol;
    return out;
}

} // namespace

LanczosResult
refLanczosGroundState(std::size_t dim, const MatVec &matvec, Rng &rng,
                      int max_krylov, double tol, int restarts)
{
    assert(dim > 0);

    CVector start(dim);
    for (auto &z : start)
        z = Complex(rng.normal(), rng.normal());

    LanczosResult best = refLanczosPass(dim, matvec, start, max_krylov, tol);
    for (int r = 0; r < restarts && !best.converged; ++r) {
        // Implicit restart: new pass seeded from the current Ritz vector,
        // lightly perturbed so a locked-in invariant subspace can escape.
        CVector seed = best.eigenvector;
        for (auto &z : seed)
            z += 1e-6 * Complex(rng.normal(), rng.normal());
        LanczosResult next =
            refLanczosPass(dim, matvec, seed, max_krylov, tol);
        if (next.eigenvalue <= best.eigenvalue || next.converged)
            best = std::move(next);
    }
    return best;
}

} // namespace treevqa
