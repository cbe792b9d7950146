#include "linalg/jacobi.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

#include "common/types.h"

namespace treevqa {

namespace {

/**
 * Row stride of the working matrix: whole cache lines, an odd number of
 * them. The rotation's column update walks one element per row; with a
 * stride of an even number of lines (m = 160: 20 lines) that walk falls
 * into a few L1 sets and evicts itself.
 */
std::size_t
paddedStride(std::size_t n)
{
    const std::size_t lines = (n + 7) / 8;
    return 8 * (lines % 2 == 0 ? lines + 1 : lines);
}

/** Frobenius norm of the strict upper triangle. */
double
offDiagonalNorm(const std::vector<double> &a, std::size_t n,
                std::size_t ld)
{
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j)
            s += a[i * ld + j] * a[i * ld + j];
    return std::sqrt(s);
}

/** (x, y) <- (c x - s y, s x + c y), elementwise, each part's first
 * product fused: the contraction the compiler gave the original strided
 * loops, spelled out so the bits do not depend on how a loop is
 * vectorized. */
void
rotate(double *x, double *y, std::size_t n, double c, double s)
{
    for (std::size_t k = 0; k < n; ++k) {
        const double xk = x[k];
        const double yk = y[k];
        x[k] = fmadd(c, xk, -(s * yk));
        y[k] = fmadd(s, xk, c * yk);
    }
}

// The scalar batch (below) gives the same bits; on a Xeon with AVX-512
// this path runs the m = 64 and 160 tridiagonals ~1.2x faster.
#if defined(__SSE2__) && (defined(__FMA__) || !defined(__FP_FAST_FMA))
#define TREEVQA_JACOBI_SSE2 1
/** One rotation of a row's entries (x, y) in columns (p, q): the lanes
 * of cs * x + nsc * y with cs = (c, s), nsc = (-s, c) and x, y
 * broadcast, i.e. (c x - s y, s x + c y) with rotate()'s roundings,
 * since (-s) * y is -(s * y) exactly. */
inline __m128d
rotatePair(__m128d cs, __m128d nsc, __m128d x, __m128d y)
{
#ifdef __FMA__
    return _mm_fmadd_pd(cs, x, _mm_mul_pd(nsc, y));
#else
    return _mm_add_pd(_mm_mul_pd(cs, x), _mm_mul_pd(nsc, y));
#endif
}
#endif

} // namespace

EigenDecomposition
jacobiEigen(const Matrix &a_in, double tol, int max_sweeps)
{
    assert(a_in.rows() == a_in.cols());
    assert(a_in.isSymmetric(1e-9));

    const std::size_t n = a_in.rows();
    const std::size_t ld = paddedStride(n);
    std::vector<double> a(n * ld);
    for (std::size_t i = 0; i < n; ++i)
        std::copy_n(&a_in.data()[i * n], n, &a[i * ld]);
    // The eigenvectors accumulate transposed: row p of vt is column p
    // of V, so a rotation updates two contiguous rows.
    std::vector<double> vt(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        vt[i * n + i] = 1.0;

    EigenDecomposition out;
    out.converged = false;

    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        if (offDiagonalNorm(a, n, ld) < tol) {
            out.converged = true;
            out.sweeps = sweep;
            break;
        }
        for (std::size_t p = 0; p + 1 < n; ++p) {
            double *ap = &a[p * ld];
            // The column updates of row p's rotations (p, qs[j]) wait
            // in a batch, and a row takes the whole batch in one visit,
            // chained through its column-p entry: the strided column
            // walk then reads and writes a row once per batch instead
            // of twice per rotation. A pending update changes columns p
            // and qs[j] of rows other than p and qs[j], and nothing
            // reads those entries before their row takes the batch: a
            // rotation's angle reads a(p, q), a(p, p) and a(q, q), and
            // its block and row update read rows p and q, row q having
            // taken the batch first.
            constexpr std::size_t kBatch = 8;
            std::size_t pending = 0;
            std::size_t qs[kBatch] = {};
#ifdef TREEVQA_JACOBI_SSE2
            __m128d css[kBatch] = {};
            __m128d nscs[kBatch] = {};
            // Row k takes rotations from..pending-1 in order.
            const auto take = [&](std::size_t k, std::size_t from) {
                double *ak = &a[k * ld];
                __m128d x = _mm_set1_pd(ak[p]);
                for (std::size_t j = from; j < pending; ++j) {
                    const __m128d r = rotatePair(css[j], nscs[j], x,
                                                 _mm_set1_pd(ak[qs[j]]));
                    _mm_storeh_pd(ak + qs[j], r);
                    x = _mm_unpacklo_pd(r, r);
                }
                _mm_storel_pd(ak + p, x);
            };
#else
            double cs[kBatch] = {};
            double ss[kBatch] = {};
            const auto take = [&](std::size_t k, std::size_t from) {
                double *ak = &a[k * ld];
                double x = ak[p];
                for (std::size_t j = from; j < pending; ++j) {
                    const double y = ak[qs[j]];
                    ak[qs[j]] = fmadd(ss[j], x, cs[j] * y);
                    x = fmadd(cs[j], x, -(ss[j] * y));
                }
                ak[p] = x;
            };
#endif
            // Every row but p takes what it has not taken yet: row
            // qs[i] took rotations 0..i when rotation i ran.
            const auto flush = [&] {
                if (pending == 0)
                    return;
                std::size_t k = 0;
                for (; k < p; ++k)
                    take(k, 0);
                k = p + 1;
                for (std::size_t i = 0; i < pending; ++i) {
                    for (; k < qs[i]; ++k)
                        take(k, 0);
                    if (i + 1 < pending)
                        take(k, i + 1);
                    ++k;
                }
                for (; k < n; ++k)
                    take(k, 0);
                pending = 0;
            };
            for (std::size_t q = p + 1; q < n; ++q) {
                const double apq = ap[q];
                if (std::fabs(apq) < 1e-300)
                    continue;
                double *aq = &a[q * ld];
                const double app = ap[p];
                const double aqq = aq[q];
                const double theta = (aqq - app) / (2.0 * apq);
                // Stable tangent of the rotation angle.
                const double t = (theta >= 0.0)
                    ? 1.0 / (theta + std::sqrt(1.0 + theta * theta))
                    : 1.0 / (theta - std::sqrt(1.0 + theta * theta));
                const double c = 1.0 / std::sqrt(1.0 + t * t);
                const double s = t * c;
                // A full batch is flushed here, so that its column walk
                // runs under the angle's divisions and square roots.
                if (pending == kBatch)
                    flush();
                if (pending != 0)
                    take(q, 0);

                // The 2x2 block takes the column update and then the
                // row update in registers; the rest of rows p and q
                // take the row update in one contiguous pass.
                const double aqp = aq[p];
                const double bpp = fmadd(c, app, -(s * apq));
                const double bpq = fmadd(s, app, c * apq);
                const double bqp = fmadd(c, aqp, -(s * aqq));
                const double bqq = fmadd(s, aqp, c * aqq);
                rotate(ap, aq, n, c, s);
                ap[p] = fmadd(c, bpp, -(s * bqp));
                aq[p] = fmadd(s, bpp, c * bqp);
                ap[q] = fmadd(c, bpq, -(s * bqq));
                aq[q] = fmadd(s, bpq, c * bqq);
                rotate(&vt[p * n], &vt[q * n], n, c, s);
                qs[pending] = q;
#ifdef TREEVQA_JACOBI_SSE2
                css[pending] = _mm_set_pd(s, c);
                nscs[pending] = _mm_set_pd(c, -s);
#else
                cs[pending] = c;
                ss[pending] = s;
#endif
                ++pending;
            }
            flush();
        }
        out.sweeps = sweep + 1;
    }
    if (!out.converged && offDiagonalNorm(a, n, ld) < tol)
        out.converged = true;

    // Sort eigenpairs ascending.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
        return a[i * ld + i] < a[j * ld + j];
    });

    out.values.resize(n);
    out.vectors = Matrix(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        out.values[j] = a[order[j] * ld + order[j]];
        for (std::size_t i = 0; i < n; ++i)
            out.vectors(i, j) = vt[order[j] * n + i];
    }
    return out;
}

EigenDecomposition
generalizedEigen(const Matrix &a, const Matrix &b, double tol)
{
    assert(a.rows() == a.cols() && b.rows() == b.cols());
    assert(a.rows() == b.rows());
    const std::size_t n = a.rows();

    // B = U diag(w) U^T  ->  X = U diag(w^{-1/2}) U^T (symmetric
    // orthogonalization). Requires all w > 0.
    EigenDecomposition bd = jacobiEigen(b, tol);
    Matrix x(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double s = 0.0;
            for (std::size_t k = 0; k < n; ++k) {
                assert(bd.values[k] > 0.0);
                s += bd.vectors(i, k) * bd.vectors(j, k)
                   / std::sqrt(bd.values[k]);
            }
            x(i, j) = s;
        }
    }

    // A' = X^T A X is symmetric; its eigenvectors map back via C = X V'.
    Matrix ap = x.transposed().multiply(a).multiply(x);
    // Symmetrize to clean numerical asymmetry before Jacobi.
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j) {
            const double m = 0.5 * (ap(i, j) + ap(j, i));
            ap(i, j) = ap(j, i) = m;
        }
    EigenDecomposition ad = jacobiEigen(ap, tol);

    EigenDecomposition out;
    out.values = ad.values;
    out.vectors = x.multiply(ad.vectors);
    out.sweeps = ad.sweeps;
    out.converged = ad.converged && bd.converged;
    return out;
}

} // namespace treevqa
