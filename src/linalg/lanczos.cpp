#include "linalg/lanczos.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/thread_pool.h"
#include "linalg/jacobi.h"

namespace treevqa {

namespace {

double
cnorm(const Complex *v, std::size_t n)
{
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        s += std::norm(v[i]);
    return std::sqrt(s);
}

/**
 * sum_i conj(a_i) b_i in index order, in real arithmetic (std::complex's
 * operator* calls __muldc3). Each product's contraction is written out:
 * the one GCC gave std::conj(a[i]) * b[i] here, which differs from the
 * one it gives c * q in subtractScaled.
 */
Complex
cdot(const Complex *a, const Complex *b, std::size_t n)
{
    double sr = 0.0;
    double si = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double ar = a[i].real();
        const double ai = a[i].imag();
        const double br = b[i].real();
        const double bi = b[i].imag();
        sr += fmadd(ar, br, -((-ai) * bi));
        si += fmadd(-ai, br, ar * bi);
    }
    return Complex(sr, si);
}

/** w -= c q in real arithmetic, each product's contraction written out
 * as GCC contracted the original w[i] -= c * q[i]. */
void
subtractScaled(Complex *w, Complex c, const Complex *q, std::size_t n)
{
    const double cr = c.real();
    const double ci = c.imag();
    for (std::size_t i = 0; i < n; ++i) {
        const double qr = q[i].real();
        const double qi = q[i].imag();
        w[i] = Complex(w[i].real() - fmadd(cr, qr, -(ci * qi)),
                       w[i].imag() - fmadd(cr, qi, ci * qr));
    }
}

void
normalize(Complex *v, std::size_t n)
{
    const double norm = cnorm(v, n);
    if (norm == 0.0)
        return;
    for (std::size_t i = 0; i < n; ++i)
        v[i] /= norm;
}

/**
 * One Lanczos pass starting from `start`; returns the best Ritz pair.
 * Full reorthogonalization against all previous Krylov vectors, which
 * lie one after another in one buffer.
 */
LanczosResult
lanczosPass(std::size_t dim, const MatVec &matvec, const CVector &start,
            int max_krylov, double tol)
{
    CVector q = start; // the newest Krylov vector, the matvec's input
    normalize(q.data(), dim);
    CVector basis;
    basis.reserve(std::min<std::size_t>(max_krylov, dim) * dim);
    std::vector<double> alpha;
    std::vector<double> beta; // beta[j] couples q_j and q_{j+1}

    CVector w(dim);
    LanczosResult out;

    for (int j = 0; j < max_krylov; ++j) {
        basis.insert(basis.end(), q.begin(), q.end());
        matvec(q, w);
        const Complex *qj = &basis[j * dim];
        const double a = cdot(qj, w.data(), dim).real();
        alpha.push_back(a);

        // w -= alpha_j q_j + beta_{j-1} q_{j-1}; then full reorth.
        for (std::size_t i = 0; i < dim; ++i)
            w[i] -= a * qj[i];
        if (j > 0) {
            const Complex *qprev = qj - dim;
            for (std::size_t i = 0; i < dim; ++i)
                w[i] -= beta[j - 1] * qprev[i];
        }
        for (std::size_t k = 0; k <= static_cast<std::size_t>(j); ++k) {
            const Complex *qk = &basis[k * dim];
            const Complex c = cdot(qk, w.data(), dim);
            if (std::abs(c) > 1e-14)
                subtractScaled(w.data(), c, qk, dim);
        }

        const double b = cnorm(w.data(), dim);
        if (b < 1e-12 || j == max_krylov - 1) {
            // Krylov space exhausted (invariant subspace) or cap hit.
            break;
        }
        beta.push_back(b);
        for (std::size_t i = 0; i < dim; ++i)
            q[i] = w[i] / b;
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
    EigenDecomposition ed = jacobiEigen(t);
    out.eigenvalue = ed.values[0];

    out.eigenvector.assign(dim, Complex(0.0, 0.0));
    for (std::size_t j = 0; j < m; ++j) {
        const double coef = ed.vectors(j, 0);
        const Complex *qj = &basis[j * dim];
        for (std::size_t i = 0; i < dim; ++i)
            out.eigenvector[i] += coef * qj[i];
    }
    normalize(out.eigenvector.data(), dim);

    matvec(out.eigenvector, w);
    for (std::size_t i = 0; i < dim; ++i)
        w[i] -= out.eigenvalue * out.eigenvector[i];
    out.residual = cnorm(w.data(), dim);
    out.converged = out.residual < tol;
    return out;
}

/** The start vector lanczosGroundState draws: dim complex normals. */
CVector
drawStart(std::size_t dim, Rng &rng)
{
    CVector start(dim);
    for (auto &z : start)
        z = Complex(rng.normal(), rng.normal());
    return start;
}

/** lanczosGroundState's restarts after its first pass `best`. */
LanczosResult
restart(LanczosResult best, std::size_t dim, const MatVec &matvec,
        Rng &rng, int max_krylov, double tol, int restarts)
{
    for (int r = 0; r < restarts && !best.converged; ++r) {
        // Implicit restart: new pass seeded from the current Ritz vector,
        // lightly perturbed so a locked-in invariant subspace can escape.
        CVector seed = best.eigenvector;
        for (auto &z : seed)
            z += 1e-6 * Complex(rng.normal(), rng.normal());
        LanczosResult next =
            lanczosPass(dim, matvec, seed, max_krylov, tol);
        if (next.eigenvalue <= best.eigenvalue || next.converged)
            best = std::move(next);
    }
    return best;
}

} // namespace

LanczosResult
lanczosGroundState(std::size_t dim, const MatVec &matvec, Rng &rng,
                   int max_krylov, double tol, int restarts)
{
    assert(dim > 0);
    const CVector start = drawStart(dim, rng);
    return restart(lanczosPass(dim, matvec, start, max_krylov, tol), dim,
                   matvec, rng, max_krylov, tol, restarts);
}

std::vector<LanczosResult>
lanczosGroundStates(const std::vector<LanczosProblem> &problems, Rng &rng,
                    int max_krylov, double tol, int restarts)
{
    const std::size_t n = problems.size();
    // Every start vector, drawn in problem order, and the generator's
    // state after each draw.
    std::vector<CVector> starts;
    std::vector<RngState> drawn;
    starts.reserve(n);
    drawn.reserve(n);
    for (const LanczosProblem &problem : problems) {
        assert(problem.dim > 0);
        starts.push_back(drawStart(problem.dim, rng));
        drawn.push_back(rng.state());
    }

    std::vector<LanczosResult> out(n);
    ThreadPool::global().run(n, [&](std::size_t i) {
        out[i] = lanczosPass(problems[i].dim, problems[i].matvec, starts[i],
                             max_krylov, tol);
    });

    // The first problem whose first pass did not converge restarts from
    // the generator state its start vector left. The problems after it
    // drew their start vectors too early, so they are solved again,
    // serially, after its restarts.
    for (std::size_t i = 0; i < n; ++i) {
        if (out[i].converged)
            continue;
        rng.setState(drawn[i]);
        out[i] = restart(std::move(out[i]), problems[i].dim,
                         problems[i].matvec, rng, max_krylov, tol,
                         restarts);
        for (std::size_t k = i + 1; k < n; ++k)
            out[k] = lanczosGroundState(problems[k].dim, problems[k].matvec,
                                        rng, max_krylov, tol, restarts);
        break;
    }
    return out;
}

} // namespace treevqa
