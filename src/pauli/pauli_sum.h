/**
 * @file
 * Real-weighted sums of Pauli strings: the Hamiltonian type of TreeVQA.
 *
 * A VQA task Hamiltonian is H = sum_j c_j P_j with real c_j (Hermitian by
 * construction). This module provides the operations the framework is
 * built on:
 *
 *  - term bookkeeping with duplicate merging and near-zero pruning;
 *  - the padded-superset alignment of several task Hamiltonians
 *    (Section 5.2.1), which underlies both the cluster mixed Hamiltonian
 *    and the l1 coefficient distance (Section 5.2.4);
 *  - application to a dense statevector (used by the Lanczos ground-truth
 *    solver);
 *  - l1 norms and trace, needed by shot accounting and the noise model.
 */

#ifndef TREEVQA_PAULI_PAULI_SUM_H
#define TREEVQA_PAULI_PAULI_SUM_H

#include <string>
#include <vector>

#include "common/types.h"
#include "pauli/pauli_string.h"

namespace treevqa {

/** One weighted term c * P of a Hamiltonian. */
struct PauliTerm
{
    double coefficient = 0.0;
    PauliString string;
};

/** Hermitian operator represented as a real-weighted Pauli sum. */
class PauliSum
{
  public:
    /** Empty (zero) operator on `num_qubits` qubits. */
    explicit PauliSum(int num_qubits = 0);

    int numQubits() const { return numQubits_; }
    std::size_t numTerms() const { return terms_.size(); }
    const std::vector<PauliTerm> &terms() const { return terms_; }

    /** Append c * P, merging into an existing equal string if present. */
    void add(double coefficient, const PauliString &string);

    /** Append c * P given as a label such as "XIZY". */
    void add(double coefficient, const std::string &label);

    /** Add another sum (term-merged), optionally scaled. */
    void addScaled(const PauliSum &other, double factor = 1.0);

    /** Merge duplicates and drop |c| <= threshold terms. */
    void compress(double threshold = 1e-12);

    /** Coefficient of the given string (0 if absent). O(#terms). */
    double coefficientOf(const PauliString &string) const;

    /** Sum of |c_j| over non-identity terms: the shot-cost driver
     * (Section 2.2). */
    double l1Norm() const;

    /** Sum of |c_j| over all terms including identity. */
    double l1NormWithIdentity() const;

    /** Number of non-identity terms (identity needs no measurement). */
    std::size_t numMeasuredTerms() const;

    /** Tr(H) / 2^n = the identity coefficient (other Paulis are
     * traceless). Used by the depolarizing noise model. */
    double normalizedTrace() const;

    /** y = H x on a dense 2^n statevector. y is resized as needed. */
    void applyTo(const CVector &x, CVector &y) const;

    /** Scale all coefficients in place. */
    void scaleCoefficients(double factor);

    /** Multi-line human-readable dump (for logs and examples). */
    std::string toString(std::size_t max_terms = 16) const;

  private:
    int numQubits_ = 0;
    std::vector<PauliTerm> terms_;
};

/**
 * The padded alignment of N task Hamiltonians over the union of their
 * Pauli terms (Section 5.2.1). `strings` is the ordered superset;
 * `coefficients[i][k]` is task i's coefficient of strings[k], zero-padded
 * where the task lacks the term.
 */
struct AlignedTerms
{
    std::vector<PauliString> strings;
    std::vector<std::vector<double>> coefficients;
};

/** Compute the padded-superset alignment of several Hamiltonians. */
AlignedTerms alignTerms(const std::vector<PauliSum> &hamiltonians);

/**
 * The cluster mixed Hamiltonian H_mixed = (1/N) sum_i H_i^padded
 * (Section 5.2.1).
 */
PauliSum mixedHamiltonian(const std::vector<PauliSum> &hamiltonians);

/**
 * l1 coefficient distance d(H_i, H_j) = || c_i - c_j ||_1 over the padded
 * alignment (Section 5.2.4). `aligned` must come from alignTerms on the
 * same task set.
 */
double l1Distance(const AlignedTerms &aligned, std::size_t i,
                  std::size_t j);

/** Convenience: pairwise l1 distance between two Hamiltonians. */
double l1Distance(const PauliSum &a, const PauliSum &b);

} // namespace treevqa

#endif // TREEVQA_PAULI_PAULI_SUM_H
