/**
 * @file
 * Resolved gate kernels: the passes behind Statevector's apply*
 * methods, selected once per op so an executor's hot loop calls them
 * without a switch on gate kind or stride.
 *
 * A compiled program (circuit/compiled_circuit.h) resolves every op to
 * a GateKernel and its qubit masks at compile time, binds its angles
 * into a flat argument array once per call, and then only walks
 * (kernel, masks, argument) triples. The Statevector methods resolve
 * the same kernels per call, so there is one implementation of every
 * pass.
 */

#ifndef TREEVQA_SIM_GATE_KERNELS_H
#define TREEVQA_SIM_GATE_KERNELS_H

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "sim/statevector.h"

namespace treevqa {

/** A bound op's argument: eight doubles. A single-qubit gate stores
 * its 2x2 matrix row-major as (re, im) pairs (packGate); a diagonal
 * reads m00 and m11 of that layout; the two-qubit rotations read
 * cos(theta/2) and sin(theta/2) from the first two slots; Cx and Cz
 * read nothing. */
struct KernelArg
{
    double v[8];
};

/** The 2x2 matrix `gate` as a KernelArg. */
inline KernelArg
packGate(const Gate1q &gate)
{
    return KernelArg{{gate.m00.real(), gate.m00.imag(), gate.m01.real(),
                      gate.m01.imag(), gate.m10.real(), gate.m10.imag(),
                      gate.m11.real(), gate.m11.imag()}};
}

/** A two-qubit rotation's KernelArg at angle theta. */
inline KernelArg
packRotation(double theta)
{
    return KernelArg{{std::cos(theta / 2.0), std::sin(theta / 2.0), 0.0,
                      0.0, 0.0, 0.0, 0.0, 0.0}};
}

/** One gate pass over the `dim` amplitudes at `amps`. `abit` and
 * `bbit` are the op's qubit masks (1 << q; a Cx's control is `abit`;
 * `bbit` is 0 for single-qubit ops). */
using GateKernel = void (*)(Complex *amps, std::size_t dim,
                            std::size_t abit, std::size_t bbit,
                            const KernelArg &arg);

/** The kinds of resolved pass. */
enum class KernelKind : std::uint8_t
{
    Gate1, ///< arbitrary 2x2 on q0
    Diag1, ///< diag(m00, m11) on q0
    Cx,    ///< control q0, target q1
    Cz,
    Rzz,
    Rxx,
    Ryy
};

/** The pass for `kind` on qubits (q0, q1), specialised by stride
 * (q1 is ignored by single-qubit kinds). */
GateKernel resolveKernel(KernelKind kind, int q0, int q1 = -1);

/** One factor of a product state: the single-qubit gate `arg`
 * (packGate layout) acting first on qubit mask `bit`. */
struct ProductFactor
{
    std::size_t bit;
    const KernelArg *arg;
};

/**
 * Overwrite the `dim` amplitudes at `amps` with the factors applied in
 * order to the basis state |initial_bits>, each qubit's factor at most
 * once. The qubits with a factor are filled in by doubling, 2 + 4 +
 * ... pair updates through Gate1's pair expression with an exactly
 * zero partner, so every amplitude carries the bits a full Gate1 pass
 * per factor would give it (up to the sign of exact zeros).
 */
void buildProductState(Complex *amps, std::size_t dim,
                       std::uint64_t initial_bits,
                       const ProductFactor *factors, std::size_t count);

} // namespace treevqa

#endif // TREEVQA_SIM_GATE_KERNELS_H
