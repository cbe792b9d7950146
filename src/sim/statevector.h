/**
 * @file
 * Dense statevector simulator.
 *
 * This is the repo's stand-in for Qiskit's AerSimulator/Statevector
 * backend (paper Section 7.4): it stores the full 2^n complex amplitude
 * vector and applies gates in place. Exact expectations of Pauli sums are
 * computed directly from the amplitudes (see expectation.h); finite-shot
 * statistics are layered on top by the ShotEstimator.
 *
 * Practical range on one core: up to ~20 qubits. The paper's large-scale
 * benchmarks (25-site Ising, 28-qubit C2H2) use the Pauli-propagation
 * engine in src/paulprop instead, exactly as the paper does.
 */

#ifndef TREEVQA_SIM_STATEVECTOR_H
#define TREEVQA_SIM_STATEVECTOR_H

#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "common/types.h"

namespace treevqa {

/** a * b in real arithmetic: std::complex's operator* compiles to the
 * NaN-recovering __muldc3 library call. */
inline Complex
cmul(const Complex &a, const Complex &b)
{
    return Complex(a.real() * b.real() - a.imag() * b.imag(),
                   a.real() * b.imag() + a.imag() * b.real());
}

/** x * y + z, rounded once where the target has FMA. */
inline double
fmadd(double x, double y, double z)
{
#ifdef __FP_FAST_FMA
    return std::fma(x, y, z);
#else
    return x * y + z;
#endif
}

/** cmul with its contraction spelled out: each part's first product
 * is fused with the rounded second one. That is what the compiler
 * makes of cmul in a scalar loop; left to itself it contracts some
 * vectorized loop shapes differently, which would make a kernel's bits
 * depend on its stride or loop shape. */
inline Complex
cmulFused(const Complex &a, const Complex &b)
{
    return Complex(fmadd(a.real(), b.real(), -(a.imag() * b.imag())),
                   fmadd(a.real(), b.imag(), a.imag() * b.real()));
}

/** A 2x2 complex matrix in row-major order (single-qubit gate). */
struct Gate1q
{
    Complex m00, m01, m10, m11;

    /** Matrix product this * rhs (apply rhs first, then this). */
    Gate1q after(const Gate1q &rhs) const
    {
        return Gate1q{cmul(m00, rhs.m00) + cmul(m01, rhs.m10),
                      cmul(m00, rhs.m01) + cmul(m01, rhs.m11),
                      cmul(m10, rhs.m00) + cmul(m11, rhs.m10),
                      cmul(m10, rhs.m01) + cmul(m11, rhs.m11)};
    }

    bool isDiagonal() const
    {
        return m01 == Complex(0.0, 0.0) && m10 == Complex(0.0, 0.0);
    }
};

/** Dense n-qubit quantum state. */
class Statevector
{
  public:
    /** |0...0> on `num_qubits` qubits. */
    explicit Statevector(int num_qubits);

    int numQubits() const { return numQubits_; }
    std::size_t dim() const { return amps_.size(); }

    const CVector &amplitudes() const { return amps_; }
    CVector &amplitudes() { return amps_; }

    /** Reset to the computational basis state |bits>. */
    void setBasisState(std::uint64_t bits);

    /** Squared norm (should stay 1 under unitary evolution). */
    double normSquared() const;

    /** Probability of measuring basis state `bits`. */
    double probability(std::uint64_t bits) const;

    /** |<this|other>|^2 state fidelity. */
    double overlapSquared(const Statevector &other) const;

    /** Apply an arbitrary single-qubit gate on qubit q. */
    void applyGate1(int q, const Gate1q &gate);

    /** Apply a diagonal single-qubit gate diag(d0, d1) on qubit q
     * (half the flops of applyGate1; used by the fusion pass for runs
     * of Rz/S/Z gates). */
    void applyDiag1(int q, Complex d0, Complex d1);

    /** Rotation gates. */
    void applyRx(int q, double theta);
    void applyRy(int q, double theta);
    void applyRz(int q, double theta);

    /** Fixed gates. */
    void applyH(int q);
    void applyX(int q);
    void applyY(int q);
    void applyZ(int q);
    void applySdg(int q);
    void applyS(int q);

    /** Two-qubit gates. */
    void applyCx(int control, int target);
    void applyCz(int a, int b);
    /** exp(-i theta/2 Z_a Z_b): the QAOA phasing primitive. */
    void applyRzz(int a, int b, double theta);
    /** exp(-i theta/2 X_a X_b) and exp(-i theta/2 Y_a Y_b). */
    void applyRxx(int a, int b, double theta);
    void applyRyy(int a, int b, double theta);

    /** Sample one measurement outcome (all qubits, Z basis). */
    std::uint64_t sample(Rng &rng) const;

  private:
    int numQubits_;
    CVector amps_;
};

} // namespace treevqa

#endif // TREEVQA_SIM_STATEVECTOR_H
