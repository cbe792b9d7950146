#include "sim/statevector.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/thread_pool.h"
#include "sim/bit_ops.h"
#include "sim/gate_kernels.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define TREEVQA_GATE1_SIMD 1
#endif

namespace treevqa {

namespace {

/**
 * Every state pass below is written in explicit real arithmetic on the
 * (re, im) parts of each amplitude: std::complex products compile to
 * the C99 Annex G NaN-recovering __muldc3 library call, which no loop
 * vectorizes. So the kernels' speed does not hinge on flags such as
 * -fcx-limited-range or -ffast-math.
 *
 * A gate on qubit q pairs the amplitudes (i, i | 1<<q). Each pass is a
 * template on the pair stride S = 1<<q for S < 16 (resolveKernel picks
 * the instantiation once per op): the state is walked as groups of 2S
 * consecutive amplitudes, pairing j with j + S, with S a constant, so
 * a low-target gate is one flat loop at every q. Wider strides walk
 * the compressed pair index k in [0, 2^{n-1}) (a zero bit inserted at
 * q recovers i, see sim/bit_ops.h) in runs of min(stride, kChunk)
 * pairs, two contiguous streams p0[j] and p0[j + stride]. Two-qubit
 * gates walk quadruples the same way on their lower stride, and a Cx
 * on a small state is pure 16-byte moves over the control-set
 * amplitudes. The gate body reaches the loop by value, never through a
 * pointer the amplitude stores could alias, so its coefficients stay
 * in registers. With AVX2+FMA the arbitrary 2x2 is written with
 * intrinsics (gate1Simd), each complex product one fmaddsub of the
 * rounded cross product: the contraction cmulFused spells out for the
 * scalar paths, so an amplitude's bits do not depend on the stride,
 * the vector width or the loop shape.
 *
 * States from kParallelMinDim amplitudes up split into chunks of
 * kChunk pairs (or quadruples); forChunks splits the chunk loop, never
 * a chunk, so every amplitude goes through the same instruction
 * stream at any thread count. Smaller states take one plain loop.
 */

/** Pairs (or quadruples) per chunk: the unit forChunks distributes. */
constexpr std::size_t kChunk = 4096;

/**
 * body(c) for every chunk c in [0, count) of a dim-amplitude state: the
 * one parallel loop of the kernels. It is a plain loop for small
 * states (checked first, so they never touch the pool), for a one-lane
 * pool, and inside a ThreadPool task, where an OpenMP team per worker
 * would multiply the two thread counts. Otherwise an OpenMP team as
 * wide as the pool splits the chunks statically, so
 * TREEVQA_NUM_THREADS sizes it and OMP_NUM_THREADS does not.
 */
template <class Body>
void
forChunks([[maybe_unused]] std::size_t dim, std::size_t count, Body body)
{
#ifdef _OPENMP
    if (dim >= kParallelMinDim && !ThreadPool::onWorkerThread()) {
        const int lanes =
            static_cast<int>(ThreadPool::global().numThreads());
        if (lanes > 1) {
            const auto n = static_cast<std::ptrdiff_t>(count);
#pragma omp parallel for schedule(static) num_threads(lanes)
            for (std::ptrdiff_t c = 0; c < n; ++c)
                body(static_cast<std::size_t>(c));
            return;
        }
    }
#endif
    for (std::size_t c = 0; c < count; ++c)
        body(c);
}

/** body(p[j], p[j + S]) for the first S amplitudes of every group of
 * 2S in [p, p + len). */
template <std::size_t S, class Body>
void
pairGroups(Complex *p, std::size_t len, Body body)
{
    for (std::size_t g = 0; g < len; g += 2 * S)
        for (std::size_t j = 0; j < S; ++j)
            body(p[g + j], p[g + S + j]);
}

/** body(p0[j], p0[j + stride]) for j < len. */
template <class Body>
void
pairRun(Complex *p0, std::size_t stride, std::size_t len, Body body)
{
    Complex *p1 = p0 + stride;
    for (std::size_t j = 0; j < len; ++j)
        body(p0[j], p1[j]);
}

/**
 * The pair walk of a pass on stride `stride` (S = stride below 16,
 * else 0): groups(p, len) on ranges of whole groups of 2S amplitudes,
 * or run(p0, len) on runs pairing p0[j] with p0[j + stride].
 */
template <std::size_t S, class Groups, class Run>
[[gnu::noinline]] void
walkPairsChunked(Complex *a, std::size_t dim, std::size_t stride,
                 Groups groups, Run run)
{
    if constexpr (S != 0) {
        constexpr std::size_t per = 2 * kChunk;
        forChunks(dim, dim / per,
                  [&](std::size_t c) { groups(a + c * per, per); });
    } else {
        const std::size_t len = std::min(stride, kChunk);
        forChunks(dim, (dim >> 1) / len, [&](std::size_t c) {
            run(a + expandBit(c * len, stride), len);
        });
    }
}

template <std::size_t S, class Groups, class Run>
void
walkPairs(Complex *a, std::size_t dim, std::size_t stride, Groups groups,
          Run run)
{
    // Small states stay in this frame; the chunked path (which may
    // fork a team) is out of line, so they pay no set-up for it.
    if (dim >= kParallelMinDim)
        return walkPairsChunked<S>(a, dim, stride, groups, run);
    if constexpr (S != 0) {
        groups(a, dim);
    } else {
        for (std::size_t b = 0; b < dim; b += 2 * stride)
            run(a + b, stride);
    }
}

/** body(x0, x1) on every amplitude pair (i, i | stride) of the state,
 * bit `stride` of i clear. */
template <std::size_t S, class Body>
void
forEachPair(Complex *a, std::size_t dim, std::size_t stride, Body body)
{
    walkPairs<S>(
        a, dim, stride,
        [body](Complex *p, std::size_t len) {
            pairGroups<S>(p, len, body);
        },
        [body, stride](Complex *p0, std::size_t len) {
            pairRun(p0, stride, len, body);
        });
}

/** forEachPair at a runtime stride, for the passes with no resolved
 * kernel (X, Y, Z, S, Sdg). */
template <class Body>
void
forEachPairAt(Complex *a, std::size_t dim, int q, Body body)
{
    const std::size_t stride = std::size_t{1} << q;
    switch (stride) {
      case 1: return forEachPair<1>(a, dim, stride, body);
      case 2: return forEachPair<2>(a, dim, stride, body);
      case 4: return forEachPair<4>(a, dim, stride, body);
      case 8: return forEachPair<8>(a, dim, stride, body);
      default: return forEachPair<0>(a, dim, stride, body);
    }
}

/** body on every quadruple of a dim-amplitude state in one walk:
 * blocks of the higher bit, then runs of the lower one (S, or the
 * runtime lower stride when S = 0). */
template <std::size_t S, class Body>
void
quadWalk(Complex *a, std::size_t dim, std::size_t abit, std::size_t bbit,
         Body body)
{
    const std::size_t lo = S != 0 ? S : std::min(abit, bbit);
    const std::size_t hi = abit ^ bbit ^ lo;
    for (std::size_t h = 0; h < dim; h += 2 * hi)
        for (std::size_t l = h; l < h + hi; l += 2 * lo)
            for (std::size_t j = l; j < l + lo; ++j)
                body(a[j], a[j + abit], a[j + bbit], a[j + abit + bbit]);
}

/**
 * body(x00, xa, xb, xab) on every quadruple i | {0, abit, bbit, both}
 * (bits abit, bbit clear in i); S = the lower stride below 16, else 0.
 * Small states take one plain walk; large ones run chunks of kChunk
 * quadruples, runs of min(low stride, kChunk) contiguous in all four
 * streams.
 */
template <std::size_t S, class Body>
[[gnu::noinline]] void
forEachQuadChunked(Complex *a, std::size_t dim, std::size_t abit,
                   std::size_t bbit, Body body)
{
    const std::size_t lo = std::min(abit, bbit);
    const std::size_t hi = std::max(abit, bbit);
    if constexpr (S != 0) {
        constexpr std::size_t per = kChunk / S;
        forChunks(dim, dim / (4 * S * per), [&](std::size_t c) {
            const Body run = body;
            for (std::size_t t = c * per; t < (c + 1) * per; ++t) {
                Complex *p = a + expandBit(t * 2 * S, hi);
                for (std::size_t j = 0; j < S; ++j)
                    run(p[j], p[j + abit], p[j + bbit],
                        p[j + abit + bbit]);
            }
        });
    } else {
        const std::size_t len = std::min(lo, kChunk);
        forChunks(dim, (dim >> 2) / len, [&](std::size_t c) {
            Complex *p = a + expandBits2(c * len, lo, hi);
            const Body run = body;
            for (std::size_t j = 0; j < len; ++j)
                run(p[j], p[j + abit], p[j + bbit], p[j + abit + bbit]);
        });
    }
}

template <std::size_t S, class Body>
void
forEachQuad(Complex *a, std::size_t dim, std::size_t abit,
            std::size_t bbit, Body body)
{
    if (dim >= kParallelMinDim)
        return forEachQuadChunked<S>(a, dim, abit, bbit, body);
    quadWalk<S>(a, dim, abit, bbit, body);
}

/** Swap two amplitudes component-wise (a struct copy would not
 * vectorize). */
inline void
swapAmps(Complex &x, Complex &y)
{
    const double r = x.real(), i = x.imag();
    x = Complex(y.real(), y.imag());
    y = Complex(r, i);
}

inline Gate1q
unpackGate(const KernelArg &arg)
{
    const double *v = arg.v;
    return Gate1q{Complex(v[0], v[1]), Complex(v[2], v[3]),
                  Complex(v[4], v[5]), Complex(v[6], v[7])};
}

/** The pair expression of every arbitrary single-qubit gate. */
inline void
gate1Pair(const Gate1q &g, Complex &x0, Complex &x1)
{
    const Complex a0 = x0, a1 = x1;
    x0 = cmulFused(g.m00, a0) + cmulFused(g.m01, a1);
    x1 = cmulFused(g.m10, a0) + cmulFused(g.m11, a1);
}

#ifdef TREEVQA_GATE1_SIMD
/**
 * Gate1 on packed amplitudes (re, im, re, im, ...), kVecAmps per
 * register. cmulFusedV multiplies by coefficients whose real and
 * imaginary parts are repeated per amplitude in cr and ci; fmaddsub
 * rounds exactly like cmulFused, so every stride and the scalar
 * prefix build give an amplitude the same bits.
 */
#ifdef __AVX512F__
using CVec = __m512d;
constexpr std::size_t kVecAmps = 4;
inline CVec
loadV(const Complex *p)
{
    return _mm512_loadu_pd(reinterpret_cast<const double *>(p));
}
inline void
storeV(Complex *p, CVec v)
{
    _mm512_storeu_pd(reinterpret_cast<double *>(p), v);
}
inline CVec
addV(CVec x, CVec y)
{
    return _mm512_add_pd(x, y);
}
inline CVec
cmulFusedV(CVec cr, CVec ci, CVec x)
{
    return _mm512_fmaddsub_pd(cr, x,
                              _mm512_mul_pd(ci, _mm512_permute_pd(x, 0x55)));
}
/** Coefficients (c0, c1, c2, c3) per amplitude slot, one part each. */
inline CVec
coefV(double c0, double c1, double c2, double c3)
{
    return _mm512_setr_pd(c0, c0, c1, c1, c2, c2, c3, c3);
}
#else
using CVec = __m256d;
constexpr std::size_t kVecAmps = 2;
inline CVec
loadV(const Complex *p)
{
    return _mm256_loadu_pd(reinterpret_cast<const double *>(p));
}
inline void
storeV(Complex *p, CVec v)
{
    _mm256_storeu_pd(reinterpret_cast<double *>(p), v);
}
inline CVec
addV(CVec x, CVec y)
{
    return _mm256_add_pd(x, y);
}
inline CVec
cmulFusedV(CVec cr, CVec ci, CVec x)
{
    return _mm256_fmaddsub_pd(cr, x,
                              _mm256_mul_pd(ci, _mm256_permute_pd(x, 5)));
}
inline CVec
coefV(double c0, double c1, double, double)
{
    return _mm256_setr_pd(c0, c0, c1, c1);
}
#endif

/** c in every slot. */
inline CVec
splatV(double c)
{
    return coefV(c, c, c, c);
}

/** Each amplitude's pair partner within one register, for a stride
 * S < kVecAmps. */
template <std::size_t S>
inline CVec
partnerV(CVec v)
{
#ifdef __AVX512F__
    if constexpr (S == 1)
        return _mm512_permutex_pd(v, 0x4e);
    else
        return _mm512_shuffle_f64x2(v, v, 0x4e);
#else
    return _mm256_permute4x64_pd(v, 0x4e);
#endif
}

/** gate1Pair on every pair of the whole groups of 2S in [p, p + len)
 * (S a constant), or on the runs (p0[j], p0[j + S]), j < len, when
 * S = 0 and `stride` gives the pairing. */
template <std::size_t S>
void
gate1Simd(Complex *p, std::size_t len, std::size_t stride,
          const Gate1q &g)
{
    if constexpr (S != 0 && S < kVecAmps) {
        // Whole groups per register: a slot in a group's low half gets
        // m00 * itself + m01 * partner, one in the high half m11 *
        // itself + m10 * partner (the same sum in the other order).
        const Complex &c1 = S == 1 ? g.m11 : g.m00;
        const Complex &c2 = S == 1 ? g.m00 : g.m11;
        const Complex &d1 = S == 1 ? g.m10 : g.m01;
        const Complex &d2 = S == 1 ? g.m01 : g.m10;
        const CVec cr =
            coefV(g.m00.real(), c1.real(), c2.real(), g.m11.real());
        const CVec ci =
            coefV(g.m00.imag(), c1.imag(), c2.imag(), g.m11.imag());
        const CVec dr =
            coefV(g.m01.real(), d1.real(), d2.real(), g.m10.real());
        const CVec di =
            coefV(g.m01.imag(), d1.imag(), d2.imag(), g.m10.imag());
        std::size_t b = 0;
        for (; b + kVecAmps <= len; b += kVecAmps) {
            const CVec v = loadV(p + b);
            storeV(p + b, addV(cmulFusedV(cr, ci, v),
                               cmulFusedV(dr, di, partnerV<S>(v))));
        }
        for (; b < len; b += 2 * S) // a state smaller than a register
            for (std::size_t j = 0; j < S; ++j)
                gate1Pair(g, p[b + j], p[b + S + j]);
    } else {
        const CVec m00r = splatV(g.m00.real());
        const CVec m00i = splatV(g.m00.imag());
        const CVec m01r = splatV(g.m01.real());
        const CVec m01i = splatV(g.m01.imag());
        const CVec m10r = splatV(g.m10.real());
        const CVec m10i = splatV(g.m10.imag());
        const CVec m11r = splatV(g.m11.real());
        const CVec m11i = splatV(g.m11.imag());
        const std::size_t step = S != 0 ? 2 * S : len;
        const std::size_t run = S != 0 ? S : len;
        const std::size_t partner = S != 0 ? S : stride;
        for (std::size_t b = 0; b < len; b += step) {
            Complex *p0 = p + b;
            Complex *p1 = p0 + partner;
            for (std::size_t j = 0; j < run; j += kVecAmps) {
                const CVec a0 = loadV(p0 + j);
                const CVec a1 = loadV(p1 + j);
                storeV(p0 + j, addV(cmulFusedV(m00r, m00i, a0),
                                    cmulFusedV(m01r, m01i, a1)));
                storeV(p1 + j, addV(cmulFusedV(m10r, m10i, a0),
                                    cmulFusedV(m11r, m11i, a1)));
            }
        }
    }
}

template <std::size_t S>
void
gate1Kernel(Complex *a, std::size_t dim, std::size_t abit, std::size_t,
            const KernelArg &arg)
{
    const Gate1q g = unpackGate(arg);
    walkPairs<S>(
        a, dim, abit,
        [g](Complex *p, std::size_t len) { gate1Simd<S>(p, len, 0, g); },
        [g, abit](Complex *p0, std::size_t len) {
            gate1Simd<0>(p0, len, abit, g);
        });
}
#else
template <std::size_t S>
void
gate1Kernel(Complex *a, std::size_t dim, std::size_t abit, std::size_t,
            const KernelArg &arg)
{
    const Gate1q g = unpackGate(arg);
    forEachPair<S>(a, dim, abit, [g](Complex &x0, Complex &x1) {
        gate1Pair(g, x0, x1);
    });
}
#endif

template <std::size_t S>
void
diag1Kernel(Complex *a, std::size_t dim, std::size_t abit, std::size_t,
            const KernelArg &arg)
{
    const Complex d0(arg.v[0], arg.v[1]), d1(arg.v[6], arg.v[7]);
    forEachPair<S>(a, dim, abit, [d0, d1](Complex &x0, Complex &x1) {
        x0 = cmul(d0, x0);
        x1 = cmul(d1, x1);
    });
}

/** Swap two amplitudes as 16-byte moves. */
inline void
moveSwap(Complex *x, Complex *y)
{
#ifdef TREEVQA_GATE1_SIMD
    double *dx = reinterpret_cast<double *>(x);
    double *dy = reinterpret_cast<double *>(y);
    const __m128d vx = _mm_loadu_pd(dx);
    _mm_storeu_pd(dx, _mm_loadu_pd(dy));
    _mm_storeu_pd(dy, vx);
#else
    swapAmps(*x, *y);
#endif
}

/** Cx: pure moves, swapping the control-set pair of each quadruple.
 * A small state is one walk over the control-set, target-clear
 * amplitudes: blocks of the higher bit, runs of the lower one. */
template <std::size_t S>
void
cxKernel(Complex *a, std::size_t dim, std::size_t cbit, std::size_t tbit,
         const KernelArg &)
{
    if (dim >= kParallelMinDim)
        return forEachQuadChunked<S>(
            a, dim, cbit, tbit,
            [](Complex &, Complex &xc, Complex &, Complex &xct) {
                swapAmps(xc, xct);
            });
    const std::size_t lo = S != 0 ? S : std::min(cbit, tbit);
    const std::size_t hi = cbit ^ tbit ^ lo;
    Complex *xc = a + cbit;
    for (std::size_t h = 0; h < dim; h += 2 * hi)
        for (std::size_t l = h; l < h + hi; l += 2 * lo)
            for (std::size_t j = l; j < l + lo; ++j)
                moveSwap(xc + j, xc + j + tbit);
}

template <std::size_t S>
void
czKernel(Complex *a, std::size_t dim, std::size_t abit, std::size_t bbit,
         const KernelArg &)
{
    forEachQuad<S>(a, dim, abit, bbit,
                   [](Complex &, Complex &, Complex &, Complex &x11) {
                       x11 = Complex(-x11.real(), -x11.imag());
                   });
}

void
rzzKernel(Complex *a, std::size_t dim, std::size_t abit, std::size_t bbit,
          const KernelArg &arg)
{
    const double c = arg.v[0];
    const double s = arg.v[1];
    // One linear pass: amplitude i gets c - i*sign*s, where sign is
    // +1 for even parity of bits a, b (|00>, |11>) and -1 for odd.
    forChunks(dim, (dim + kChunk - 1) / kChunk, [&](std::size_t ch) {
        const std::size_t in = std::min((ch + 1) * kChunk, dim);
        for (std::size_t i = ch * kChunk; i < in; ++i) {
            const double ss = ((i & abit) != 0) != ((i & bbit) != 0)
                ? -s
                : s;
            a[i] = cmul(Complex(c, -ss), a[i]);
        }
    });
}

template <std::size_t S>
void
rxxKernel(Complex *a, std::size_t dim, std::size_t abit, std::size_t bbit,
          const KernelArg &arg)
{
    const double c = arg.v[0];
    const double s = arg.v[1];
    // exp(-i t/2 XX) = cos(t/2) I - i sin(t/2) XX couples |00>~|11>
    // and |01>~|10>, all with the same -i*sin coefficient:
    // c*x - i*s*y per component.
    forEachQuad<S>(a, dim, abit, bbit,
                   [=](Complex &x00, Complex &x01, Complex &x10,
                       Complex &x11) {
                       const Complex a00 = x00, a01 = x01;
                       const Complex a10 = x10, a11 = x11;
                       x00 = Complex(c * a00.real() + s * a11.imag(),
                                     c * a00.imag() - s * a11.real());
                       x11 = Complex(c * a11.real() + s * a00.imag(),
                                     c * a11.imag() - s * a00.real());
                       x01 = Complex(c * a01.real() + s * a10.imag(),
                                     c * a01.imag() - s * a10.real());
                       x10 = Complex(c * a10.real() + s * a01.imag(),
                                     c * a10.imag() - s * a01.real());
                   });
}

template <std::size_t S>
void
ryyKernel(Complex *a, std::size_t dim, std::size_t abit, std::size_t bbit,
          const KernelArg &arg)
{
    const double c = arg.v[0];
    const double s = arg.v[1];
    // YY|00> = -|11> and YY|01> = |10>, so exp(-i t/2 YY) couples the
    // even-parity pair with +i sin and the odd-parity pair with -i sin.
    forEachQuad<S>(a, dim, abit, bbit,
                   [=](Complex &x00, Complex &x01, Complex &x10,
                       Complex &x11) {
                       const Complex a00 = x00, a01 = x01;
                       const Complex a10 = x10, a11 = x11;
                       x00 = Complex(c * a00.real() - s * a11.imag(),
                                     c * a00.imag() + s * a11.real());
                       x11 = Complex(c * a11.real() - s * a00.imag(),
                                     c * a11.imag() + s * a00.real());
                       x01 = Complex(c * a01.real() + s * a10.imag(),
                                     c * a01.imag() - s * a10.real());
                       x10 = Complex(c * a10.real() + s * a01.imag(),
                                     c * a10.imag() - s * a01.real());
                   });
}

/** The instantiation of a stride-templated kernel for `stride`. */
template <template <std::size_t> class K>
GateKernel
byStride(std::size_t stride)
{
    switch (stride) {
      case 1: return K<1>::fn;
      case 2: return K<2>::fn;
      case 4: return K<4>::fn;
      case 8: return K<8>::fn;
      default: return K<0>::fn;
    }
}

template <std::size_t S> struct Gate1K { static constexpr GateKernel fn = gate1Kernel<S>; };
template <std::size_t S> struct Diag1K { static constexpr GateKernel fn = diag1Kernel<S>; };
template <std::size_t S> struct CxK { static constexpr GateKernel fn = cxKernel<S>; };
template <std::size_t S> struct CzK { static constexpr GateKernel fn = czKernel<S>; };
template <std::size_t S> struct RxxK { static constexpr GateKernel fn = rxxKernel<S>; };
template <std::size_t S> struct RyyK { static constexpr GateKernel fn = ryyKernel<S>; };

} // namespace

GateKernel
resolveKernel(KernelKind kind, int q0, int q1)
{
    const std::size_t a = std::size_t{1} << q0;
    const std::size_t lo =
        q1 < 0 ? a : std::min(a, std::size_t{1} << q1);
    switch (kind) {
      case KernelKind::Gate1: return byStride<Gate1K>(a);
      case KernelKind::Diag1: return byStride<Diag1K>(a);
      case KernelKind::Cx: return byStride<CxK>(lo);
      case KernelKind::Cz: return byStride<CzK>(lo);
      case KernelKind::Rzz: return rzzKernel;
      case KernelKind::Rxx: return byStride<RxxK>(lo);
      case KernelKind::Ryy: return byStride<RyyK>(lo);
    }
    return nullptr;
}

void
buildProductState(Complex *amps, std::size_t dim,
                  std::uint64_t initial_bits,
                  const ProductFactor *factors, std::size_t count)
{
    std::size_t covered = 0;
    for (std::size_t f = 0; f < count; ++f)
        covered |= factors[f].bit;
    const std::size_t base = initial_bits & ~covered;
    if (covered != dim - 1)
        std::fill(amps, amps + dim, Complex(0.0, 0.0));
    amps[base] = Complex(1.0, 0.0);

    // After the factors on the qubits of `done`, the nonzero
    // amplitudes sit at base | s for the subsets s of done. Each factor
    // doubles them: the pair (amplitude, exact zero), ordered by the
    // factor qubit's initial bit, goes through gate1Pair.
    std::size_t done = 0;
    for (std::size_t f = 0; f < count; ++f) {
        const Gate1q g = unpackGate(*factors[f].arg);
        const std::size_t bit = factors[f].bit;
        const bool set = (initial_bits & bit) != 0;
        const auto step = [g, set](Complex &lo, Complex &hi) {
            Complex x0 = set ? Complex(0.0, 0.0) : lo;
            Complex x1 = set ? lo : Complex(0.0, 0.0);
            gate1Pair(g, x0, x1);
            lo = x0;
            hi = x1;
        };
        if ((done & (done + 1)) == 0) {
            // done is a low mask: one contiguous run from base.
            Complex *p = amps + base;
            for (std::size_t j = 0; j <= done; ++j)
                step(p[j], p[j + bit]);
        } else {
            std::size_t s = 0;
            do {
                step(amps[base | s], amps[base | s | bit]);
                s = (s - done) & done;
            } while (s != 0);
        }
        done |= bit;
    }
}

Statevector::Statevector(int num_qubits)
    : numQubits_(num_qubits),
      amps_(std::size_t{1} << num_qubits, Complex(0.0, 0.0))
{
    assert(num_qubits >= 1 && num_qubits <= 30);
    amps_[0] = Complex(1.0, 0.0);
}

void
Statevector::setBasisState(std::uint64_t bits)
{
    assert(bits < amps_.size());
    std::fill(amps_.begin(), amps_.end(), Complex(0.0, 0.0));
    amps_[bits] = Complex(1.0, 0.0);
}

double
Statevector::normSquared() const
{
    double s = 0.0;
    for (const Complex &a : amps_)
        s += std::norm(a);
    return s;
}

double
Statevector::probability(std::uint64_t bits) const
{
    assert(bits < amps_.size());
    return std::norm(amps_[bits]);
}

double
Statevector::overlapSquared(const Statevector &other) const
{
    assert(other.amps_.size() == amps_.size());
    const Complex *a = amps_.data();
    const Complex *b = other.amps_.data();
    double re = 0.0, im = 0.0;
    for (std::size_t i = 0; i < amps_.size(); ++i) {
        const Complex t = cmul(std::conj(a[i]), b[i]);
        re += t.real();
        im += t.imag();
    }
    return re * re + im * im;
}

void
Statevector::applyGate1(int q, const Gate1q &gate)
{
    assert(q >= 0 && q < numQubits_);
    resolveKernel(KernelKind::Gate1, q)(amps_.data(), dim(),
                                        std::size_t{1} << q, 0,
                                        packGate(gate));
}

void
Statevector::applyDiag1(int q, Complex d0, Complex d1)
{
    assert(q >= 0 && q < numQubits_);
    resolveKernel(KernelKind::Diag1, q)(
        amps_.data(), dim(), std::size_t{1} << q, 0,
        packGate(Gate1q{d0, Complex(0.0, 0.0), Complex(0.0, 0.0), d1}));
}

void
Statevector::applyRx(int q, double theta)
{
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    applyGate1(q, Gate1q{Complex(c, 0), Complex(0, -s),
                         Complex(0, -s), Complex(c, 0)});
}

void
Statevector::applyRy(int q, double theta)
{
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    applyGate1(q, Gate1q{Complex(c, 0), Complex(-s, 0),
                         Complex(s, 0), Complex(c, 0)});
}

void
Statevector::applyRz(int q, double theta)
{
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    applyDiag1(q, Complex(c, -s), Complex(c, s));
}

void
Statevector::applyH(int q)
{
    const double r = 1.0 / std::sqrt(2.0);
    applyGate1(q, Gate1q{Complex(r, 0), Complex(r, 0),
                         Complex(r, 0), Complex(-r, 0)});
}

void
Statevector::applyX(int q)
{
    assert(q >= 0 && q < numQubits_);
    forEachPairAt(amps_.data(), dim(), q,
                  [](Complex &x0, Complex &x1) { swapAmps(x0, x1); });
}

void
Statevector::applyY(int q)
{
    assert(q >= 0 && q < numQubits_);
    // Y = [[0, -i], [i, 0]].
    forEachPairAt(amps_.data(), dim(), q, [](Complex &x0, Complex &x1) {
        const double r0 = x0.real(), i0 = x0.imag();
        x0 = Complex(x1.imag(), -x1.real());
        x1 = Complex(-i0, r0);
    });
}

void
Statevector::applyZ(int q)
{
    assert(q >= 0 && q < numQubits_);
    forEachPairAt(amps_.data(), dim(), q, [](Complex &, Complex &x1) {
        x1 = Complex(-x1.real(), -x1.imag());
    });
}

void
Statevector::applyS(int q)
{
    assert(q >= 0 && q < numQubits_);
    forEachPairAt(amps_.data(), dim(), q, [](Complex &, Complex &x1) {
        x1 = Complex(-x1.imag(), x1.real()); // *= i
    });
}

void
Statevector::applySdg(int q)
{
    assert(q >= 0 && q < numQubits_);
    forEachPairAt(amps_.data(), dim(), q, [](Complex &, Complex &x1) {
        x1 = Complex(x1.imag(), -x1.real()); // *= -i
    });
}

void
Statevector::applyCx(int control, int target)
{
    assert(control != target);
    resolveKernel(KernelKind::Cx, control, target)(
        amps_.data(), dim(), std::size_t{1} << control,
        std::size_t{1} << target, KernelArg{});
}

void
Statevector::applyCz(int a_q, int b_q)
{
    assert(a_q != b_q);
    resolveKernel(KernelKind::Cz, a_q, b_q)(
        amps_.data(), dim(), std::size_t{1} << a_q,
        std::size_t{1} << b_q, KernelArg{});
}

void
Statevector::applyRzz(int a_q, int b_q, double theta)
{
    assert(a_q != b_q);
    resolveKernel(KernelKind::Rzz, a_q, b_q)(
        amps_.data(), dim(), std::size_t{1} << a_q,
        std::size_t{1} << b_q, packRotation(theta));
}

void
Statevector::applyRxx(int a_q, int b_q, double theta)
{
    assert(a_q != b_q);
    resolveKernel(KernelKind::Rxx, a_q, b_q)(
        amps_.data(), dim(), std::size_t{1} << a_q,
        std::size_t{1} << b_q, packRotation(theta));
}

void
Statevector::applyRyy(int a_q, int b_q, double theta)
{
    assert(a_q != b_q);
    resolveKernel(KernelKind::Ryy, a_q, b_q)(
        amps_.data(), dim(), std::size_t{1} << a_q,
        std::size_t{1} << b_q, packRotation(theta));
}

std::uint64_t
Statevector::sample(Rng &rng) const
{
    double r = rng.uniform();
    for (std::size_t i = 0; i < amps_.size(); ++i) {
        r -= std::norm(amps_[i]);
        if (r <= 0.0)
            return i;
    }
    return amps_.size() - 1;
}

} // namespace treevqa
