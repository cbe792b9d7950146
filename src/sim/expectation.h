/**
 * @file
 * Exact Pauli expectations on a dense statevector.
 *
 * Every VQA objective evaluation reduces to per-term expectations
 * <psi|P_j|psi>. They are computed here directly from the amplitudes,
 * with no measurement sampling, in one grouped pass per X mask. An
 * ExpectationPlan compiles a fixed string list once (groups, sign
 * tables, block layout), as CompiledCircuit does for gates, and its
 * evaluate() is the only amplitude kernel: perStringExpectations and
 * the single-string and Pauli-sum overloads build a one-off plan and
 * evaluate it. Callers that measure the same strings on many states
 * (an objective's terms, an init search's Hamiltonian) keep one plan.
 * The finite-shot statistics the paper's optimizer actually sees are
 * injected afterwards by the ShotEstimator, using these exact values as
 * the means.
 *
 * Keeping the per-term values around is also exactly what enables the
 * paper's cheap post-processing (Section 5.3): re-evaluating a task
 * Hamiltonian on another cluster's state is a classical recombination of
 * stored per-term expectations with different coefficients.
 */

#ifndef TREEVQA_SIM_EXPECTATION_H
#define TREEVQA_SIM_EXPECTATION_H

#include <cstdint>
#include <vector>

#include "pauli/pauli_sum.h"
#include "sim/statevector.h"

namespace treevqa {

/**
 * Exact expectations of a fixed list of Pauli strings, planned once.
 *
 * Strings sharing an X mask share one amplitude pass (the product
 * conj(psi[b ^ x]) * psi[b] is independent of the Z mask), which speeds
 * up chemistry-style Hamiltonians where many hopping/exchange terms act
 * on the same qubit support. Identity strings yield 1.
 *
 * The constructor does all the planning: X-mask groups with compressed
 * Z masks, the Y-parity split and +-2/+-1 weights, per-member sign
 * tables, the block layout and the flat (group, block) work list.
 * evaluate() then only streams the amplitudes into block-indexed
 * partial slots of one per-call buffer: from kParallelMinDim
 * amplitudes up (the gate kernels' rule) the work items fan out over
 * the global thread pool, below it they run serially. The final
 * reduction walks blocks in ascending order, so results are
 * bit-identical for any pool size (including 1).
 * The plan is immutable after construction, so one plan may be
 * evaluated concurrently on different states.
 */
class ExpectationPlan
{
  public:
    /** Plan `strings`, each on `num_qubits` qubits. */
    ExpectationPlan(const std::vector<PauliString> &strings,
                    int num_qubits);

    /** Plan a Pauli sum's strings in term order (see
     * termCoefficients for the matching recombination weights). */
    explicit ExpectationPlan(const PauliSum &hamiltonian);

    /** <psi|P_k|psi> for every planned string k, in input order.
     * `state` must have the plan's qubit count. Reentrant. */
    std::vector<double> evaluate(const Statevector &state) const;

    int numQubits() const { return numQubits_; }
    std::size_t numStrings() const { return numStrings_; }

  private:
    /** One X-mask group member, flattened for the hot loop. */
    struct Member
    {
        std::uint64_t zMask;
        std::size_t outIndex;
        double weight; ///< +-2 (off-diagonal) or +-1 (diagonal)
    };

    /** One X-mask group with its sign tables and its slice of the
     * per-call partial buffer. */
    struct Group
    {
        std::uint64_t xm = 0;
        std::size_t hbit = 0; ///< pairing bit (0 for diagonal groups)
        std::size_t range = 0; ///< dim (diagonal) or dim/2
        std::size_t nblocks = 0;
        std::size_t lutLen = 0;
        std::vector<Member> membersRe, membersIm;
        std::vector<double> lutRe, lutIm;
        /** Offsets of the nblocks x members block-major partial
         * sums in the per-call buffer. */
        std::size_t partialRe = 0, partialIm = 0;
    };

    /** One (group, block) work item. */
    struct WorkItem
    {
        std::size_t group;
        std::size_t block;
    };

    static void processBlock(const Group &group, std::size_t block,
                             const Complex *amps, double *partial);

    int numQubits_ = 0;
    std::size_t numStrings_ = 0;
    std::vector<std::size_t> identities_;
    std::vector<Group> groups_;
    std::vector<WorkItem> work_;
    std::size_t partialSize_ = 0;
};

/** Exact expectations of many Pauli strings: a one-off
 * ExpectationPlan evaluated once. */
std::vector<double> perStringExpectations(
    const Statevector &state, const std::vector<PauliString> &strings);

/** <psi|P|psi> for a single Pauli string: a one-string
 * perStringExpectations call. */
double expectation(const Statevector &state, const PauliString &string);

/** <psi|H|psi> for a Pauli sum: recombine(termCoefficients(H),
 * ExpectationPlan(H).evaluate(state)). */
double expectation(const Statevector &state, const PauliSum &hamiltonian);

/** A Pauli sum's coefficients in term order: the recombination
 * weights of an ExpectationPlan built from the same sum. */
std::vector<double> termCoefficients(const PauliSum &hamiltonian);

/** Recombine stored per-term expectations with a coefficient vector:
 * sum_j c_j <P_j>. Sizes must agree. */
double recombine(const std::vector<double> &coefficients,
                 const std::vector<double> &term_expectations);

namespace detail {

/**
 * The pair products of one block of an X-mask group:
 * t[j] = conj(a[b ^ xm]) * a[b] with b = expandBit(k0 + j, hbit) and
 * hbit xm's highest bit, for j < kn, real parts into tre and imaginary
 * parts into tim. Each product is cmulFused's, so both walks give it
 * the same bits. ExpectationPlan takes pairProducts8 (AVX-512 builds,
 * kn a multiple of 8) where it can, pairProductRuns otherwise.
 */
void pairProductRuns(std::uint64_t xm, std::size_t hbit, std::size_t k0,
                     std::size_t kn, const Complex *amps, double *tre,
                     double *tim);
#ifdef __AVX512F__
void pairProducts8(std::uint64_t xm, std::size_t hbit, std::size_t k0,
                   std::size_t kn, const Complex *amps, double *tre,
                   double *tim);
#endif

} // namespace detail

} // namespace treevqa

#endif // TREEVQA_SIM_EXPECTATION_H
