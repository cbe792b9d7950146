#include "sim/statevector.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/thread_pool.h"
#include "sim/bit_ops.h"

namespace treevqa {

namespace {

/**
 * Every state pass below is written in explicit real arithmetic on the
 * (re, im) parts of each amplitude: std::complex products compile to
 * the C99 Annex G NaN-recovering __muldc3 library call, which no loop
 * vectorizes. So the kernels' speed does not hinge on flags such as
 * -fcx-limited-range or -ffast-math.
 *
 * A gate on qubit q pairs the amplitudes (i, i | 1<<q). The kernels
 * walk the compressed pair index k in [0, 2^{n-1}) (a zero bit
 * inserted at q recovers i, see sim/bit_ops.h) in chunks of
 * min(stride, kChunk) pairs. Such a chunk maps onto two contiguous
 * runs p0[j] and p0[j + stride], so the inner loop is unit-stride and
 * vectorizes. forChunks splits the chunk loop, never a chunk, so every
 * amplitude goes through the same instruction stream at any thread
 * count. Two-qubit gates insert two zero bits and walk quadruples the
 * same way, in runs of min(low stride, kChunk).
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

/**
 * Low strides S < 16, where a run would hold too few pairs to
 * vectorize: walk groups of 2S consecutive amplitudes instead, pairing
 * g*2S + j with g*2S + S + j for j < S (unrolled, S is a constant).
 */
template <std::size_t S, class Body>
void
pairGroups(CVector &amps, Body &body)
{
    Complex *a = amps.data();
    const std::size_t groups = amps.size() / (2 * S);
    const std::size_t per = std::min(groups, kChunk / S);
    forChunks(amps.size(), groups / per, [&](std::size_t c) {
        Complex *p = a + c * per * 2 * S;
        for (std::size_t g = 0; g < per; ++g)
            for (std::size_t j = 0; j < S; ++j)
                body(p[2 * S * g + j], p[2 * S * g + S + j]);
    });
}

/** body(x0, x1) on every amplitude pair (i, i | 1<<q), bit q of i
 * clear, in chunked contiguous runs (see the comment above). */
template <class Body>
void
forEachPair(CVector &amps, int q, Body body)
{
    const std::size_t stride = std::size_t{1} << q;
    switch (stride) {
      case 1: return pairGroups<1>(amps, body);
      case 2: return pairGroups<2>(amps, body);
      case 4: return pairGroups<4>(amps, body);
      case 8: return pairGroups<8>(amps, body);
      default: break;
    }
    Complex *a = amps.data();
    const std::size_t len = std::min(stride, kChunk);
    forChunks(amps.size(), (amps.size() >> 1) / len, [&](std::size_t c) {
        Complex *p0 = a + expandBit(c * len, stride);
        Complex *p1 = p0 + stride;
        for (std::size_t j = 0; j < len; ++j)
            body(p0[j], p1[j]);
    });
}

/** The quadruple counterpart of pairGroups for a low stride S: group
 * t holds the S quadruples at expandBit(t * 2S, hi) + j, j < S. */
template <std::size_t S, class Body>
void
quadGroups(CVector &amps, std::size_t abit, std::size_t bbit, Body &body)
{
    Complex *a = amps.data();
    const std::size_t hi = std::max(abit, bbit);
    const std::size_t groups = amps.size() / (4 * S);
    const std::size_t per = std::min(groups, kChunk / S);
    forChunks(amps.size(), groups / per, [&](std::size_t c) {
        for (std::size_t t = c * per; t < (c + 1) * per; ++t) {
            Complex *p = a + expandBit(t * 2 * S, hi);
            for (std::size_t j = 0; j < S; ++j)
                body(p[j], p[j + abit], p[j + bbit], p[j + abit + bbit]);
        }
    });
}

/**
 * body(x00, xa, xb, xab) on every quadruple i | {0, 1<<qa, 1<<qb, both}
 * (bits qa, qb clear in i), in runs of min(low stride, kChunk)
 * quadruples that are contiguous in all four streams.
 */
template <class Body>
void
forEachQuad(CVector &amps, int qa, int qb, Body body)
{
    const std::size_t abit = std::size_t{1} << qa;
    const std::size_t bbit = std::size_t{1} << qb;
    const std::size_t lo = std::min(abit, bbit);
    switch (lo) {
      case 1: return quadGroups<1>(amps, abit, bbit, body);
      case 2: return quadGroups<2>(amps, abit, bbit, body);
      case 4: return quadGroups<4>(amps, abit, bbit, body);
      case 8: return quadGroups<8>(amps, abit, bbit, body);
      default: break;
    }
    Complex *a = amps.data();
    const std::size_t hi = std::max(abit, bbit);
    const std::size_t len = std::min(lo, kChunk);
    forChunks(amps.size(), (amps.size() >> 2) / len, [&](std::size_t c) {
        Complex *p = a + expandBits2(c * len, lo, hi);
        for (std::size_t j = 0; j < len; ++j)
            body(p[j], p[j + abit], p[j + bbit], p[j + abit + bbit]);
    });
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

} // namespace

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
    forEachPair(amps_, q, [gate](Complex &x0, Complex &x1) {
        const Complex a0 = x0, a1 = x1;
        x0 = cmul(gate.m00, a0) + cmul(gate.m01, a1);
        x1 = cmul(gate.m10, a0) + cmul(gate.m11, a1);
    });
}

void
Statevector::applyDiag1(int q, Complex d0, Complex d1)
{
    assert(q >= 0 && q < numQubits_);
    forEachPair(amps_, q, [d0, d1](Complex &x0, Complex &x1) {
        x0 = cmul(d0, x0);
        x1 = cmul(d1, x1);
    });
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
    forEachPair(amps_, q,
                [](Complex &x0, Complex &x1) { swapAmps(x0, x1); });
}

void
Statevector::applyY(int q)
{
    assert(q >= 0 && q < numQubits_);
    // Y = [[0, -i], [i, 0]].
    forEachPair(amps_, q, [](Complex &x0, Complex &x1) {
        const double r0 = x0.real(), i0 = x0.imag();
        x0 = Complex(x1.imag(), -x1.real());
        x1 = Complex(-i0, r0);
    });
}

void
Statevector::applyZ(int q)
{
    assert(q >= 0 && q < numQubits_);
    forEachPair(amps_, q, [](Complex &, Complex &x1) {
        x1 = Complex(-x1.real(), -x1.imag());
    });
}

void
Statevector::applyS(int q)
{
    assert(q >= 0 && q < numQubits_);
    forEachPair(amps_, q, [](Complex &, Complex &x1) {
        x1 = Complex(-x1.imag(), x1.real()); // *= i
    });
}

void
Statevector::applySdg(int q)
{
    assert(q >= 0 && q < numQubits_);
    forEachPair(amps_, q, [](Complex &, Complex &x1) {
        x1 = Complex(x1.imag(), -x1.real()); // *= -i
    });
}

void
Statevector::applyCx(int control, int target)
{
    assert(control != target);
    // Swap the control-set pair.
    forEachQuad(amps_, control, target,
                [](Complex &, Complex &xc, Complex &, Complex &xct) {
                    swapAmps(xc, xct);
                });
}

void
Statevector::applyCz(int a_q, int b_q)
{
    assert(a_q != b_q);
    forEachQuad(amps_, a_q, b_q,
                [](Complex &, Complex &, Complex &, Complex &x11) {
                    x11 = Complex(-x11.real(), -x11.imag());
                });
}

void
Statevector::applyRzz(int a_q, int b_q, double theta)
{
    assert(a_q != b_q);
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    Complex *a = amps_.data();
    const std::size_t dim = amps_.size();
    // One linear pass: amplitude i gets c - i*sign*s, where sign is
    // +1 for even parity of bits a, b (|00>, |11>) and -1 for odd.
    forChunks(dim, (dim + kChunk - 1) / kChunk, [&](std::size_t ch) {
        const std::size_t in = std::min((ch + 1) * kChunk, dim);
        for (std::size_t i = ch * kChunk; i < in; ++i) {
            const double ss =
                ((i >> a_q) ^ (i >> b_q)) & 1u ? -s : s;
            a[i] = cmul(Complex(c, -ss), a[i]);
        }
    });
}

void
Statevector::applyRxx(int a_q, int b_q, double theta)
{
    assert(a_q != b_q);
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    // exp(-i t/2 XX) = cos(t/2) I - i sin(t/2) XX couples |00>~|11>
    // and |01>~|10>, all with the same -i*sin coefficient:
    // c*x - i*s*y per component.
    forEachQuad(amps_, a_q, b_q,
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

void
Statevector::applyRyy(int a_q, int b_q, double theta)
{
    assert(a_q != b_q);
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    // YY|00> = -|11> and YY|01> = |10>, so exp(-i t/2 YY) couples the
    // even-parity pair with +i sin and the odd-parity pair with -i sin.
    forEachQuad(amps_, a_q, b_q,
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
