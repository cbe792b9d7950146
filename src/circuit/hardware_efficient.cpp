#include "circuit/hardware_efficient.h"

#include <cassert>

namespace treevqa {

namespace {

/** Ansatz::prepare lives here to keep ansatz.h header-only friendly. */
} // namespace

Ansatz::Ansatz(Circuit circuit, std::uint64_t initial_bits)
    : circuit_(std::move(circuit)),
      compiled_(std::make_shared<const CompiledCircuit>(circuit_)),
      initialBits_(initial_bits)
{
}

Statevector
Ansatz::prepare(const std::vector<double> &theta) const
{
    Statevector state(circuit_.numQubits());
    prepareInto(state, theta);
    return state;
}

void
Ansatz::prepareInto(Statevector &state,
                    const std::vector<double> &theta) const
{
    assert(state.numQubits() == circuit_.numQubits());
    if (compiled_) {
        compiled_->execute(state, theta, initialBits_);
    } else {
        state.setBasisState(initialBits_); // default-constructed ansatz
        circuit_.apply(state, theta);
    }
}

Ansatz
makeHardwareEfficientAnsatz(int num_qubits, int layers,
                            std::uint64_t initial_bits)
{
    assert(num_qubits >= 1);
    assert(layers >= 1);

    Circuit c(num_qubits);

    // Initial rotation layer.
    for (int q = 0; q < num_qubits; ++q)
        c.ryParam(q, c.addParam());
    for (int q = 0; q < num_qubits; ++q)
        c.rzParam(q, c.addParam());

    for (int layer = 0; layer < layers; ++layer) {
        // Circular CX entanglement: q -> q+1, wrapping n-1 -> 0.
        for (int q = 0; q < num_qubits; ++q) {
            const int target = (q + 1) % num_qubits;
            if (num_qubits > 1 && target != q)
                c.cx(q, target);
        }
        // Rotation layer.
        for (int q = 0; q < num_qubits; ++q)
            c.ryParam(q, c.addParam());
        for (int q = 0; q < num_qubits; ++q)
            c.rzParam(q, c.addParam());
    }
    c.setEntanglingLayers(layers);

    return Ansatz(std::move(c), initial_bits);
}

} // namespace treevqa
