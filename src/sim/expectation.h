/**
 * @file
 * Exact Pauli expectations on a dense statevector.
 *
 * Every VQA objective evaluation reduces to per-term expectations
 * <psi|P_j|psi>. They are computed here directly from the amplitudes,
 * with no measurement sampling, in one grouped pass per X mask
 * (perStringExpectations, the only amplitude kernel; the single-string
 * and Pauli-sum overloads are calls through it). The finite-shot
 * statistics the paper's optimizer actually sees are injected afterwards
 * by the ShotEstimator, using these exact values as the means.
 *
 * Keeping the per-term values around is also exactly what enables the
 * paper's cheap post-processing (Section 5.3): re-evaluating a task
 * Hamiltonian on another cluster's state is a classical recombination of
 * stored per-term expectations with different coefficients.
 */

#ifndef TREEVQA_SIM_EXPECTATION_H
#define TREEVQA_SIM_EXPECTATION_H

#include <vector>

#include "pauli/pauli_sum.h"
#include "sim/statevector.h"

namespace treevqa {

/**
 * Exact expectations of many Pauli strings, batched and threaded.
 *
 * Strings sharing an X mask share one amplitude pass (the product
 * conj(psi[b ^ x]) * psi[b] is independent of the Z mask), which speeds
 * up chemistry-style Hamiltonians where many hopping/exchange terms act
 * on the same qubit support. Identity strings yield 1.
 *
 * The (X-mask group, amplitude block) pairs fan out over the global
 * thread pool with block-indexed partial accumulators; the final
 * reduction walks blocks in ascending order, so results are
 * bit-identical for any pool size (including 1).
 */
std::vector<double> perStringExpectations(
    const Statevector &state, const std::vector<PauliString> &strings);

/** <psi|P|psi> for a single Pauli string: a one-string
 * perStringExpectations call. */
double expectation(const Statevector &state, const PauliString &string);

/** <psi|H|psi> for a Pauli sum: the recombination of its terms'
 * perStringExpectations values with their coefficients. */
double expectation(const Statevector &state, const PauliSum &hamiltonian);

/** Recombine stored per-term expectations with a coefficient vector:
 * sum_j c_j <P_j>. Sizes must agree. */
double recombine(const std::vector<double> &coefficients,
                 const std::vector<double> &term_expectations);

} // namespace treevqa

#endif // TREEVQA_SIM_EXPECTATION_H
