#include "pauli/pauli_sum.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <map>
#include <sstream>
#include <unordered_map>

namespace treevqa {

PauliSum::PauliSum(int num_qubits)
    : numQubits_(num_qubits)
{
    assert(num_qubits >= 0 && num_qubits <= kMaxQubits);
}

void
PauliSum::add(double coefficient, const PauliString &string)
{
    assert(string.numQubits() == numQubits_);
    for (auto &term : terms_) {
        if (term.string == string) {
            term.coefficient += coefficient;
            return;
        }
    }
    terms_.push_back(PauliTerm{coefficient, string});
}

void
PauliSum::add(double coefficient, const std::string &label)
{
    assert(static_cast<int>(label.size()) == numQubits_);
    add(coefficient, PauliString::fromLabel(label));
}

void
PauliSum::addScaled(const PauliSum &other, double factor)
{
    assert(other.numQubits_ == numQubits_);
    // Merge through a hash map: O(terms) instead of O(terms^2).
    std::unordered_map<PauliString, std::size_t, PauliStringHash> index;
    index.reserve(terms_.size() * 2);
    for (std::size_t k = 0; k < terms_.size(); ++k)
        index.emplace(terms_[k].string, k);
    for (const auto &term : other.terms_) {
        auto it = index.find(term.string);
        if (it != index.end()) {
            terms_[it->second].coefficient += factor * term.coefficient;
        } else {
            index.emplace(term.string, terms_.size());
            terms_.push_back(
                PauliTerm{factor * term.coefficient, term.string});
        }
    }
}

void
PauliSum::compress(double threshold)
{
    std::map<PauliString, double> merged;
    for (const auto &term : terms_)
        merged[term.string] += term.coefficient;
    terms_.clear();
    for (const auto &[string, coefficient] : merged)
        if (std::fabs(coefficient) > threshold)
            terms_.push_back(PauliTerm{coefficient, string});
}

double
PauliSum::coefficientOf(const PauliString &string) const
{
    for (const auto &term : terms_)
        if (term.string == string)
            return term.coefficient;
    return 0.0;
}

double
PauliSum::l1Norm() const
{
    double s = 0.0;
    for (const auto &term : terms_)
        if (!term.string.isIdentity())
            s += std::fabs(term.coefficient);
    return s;
}

double
PauliSum::l1NormWithIdentity() const
{
    double s = 0.0;
    for (const auto &term : terms_)
        s += std::fabs(term.coefficient);
    return s;
}

std::size_t
PauliSum::numMeasuredTerms() const
{
    std::size_t n = 0;
    for (const auto &term : terms_)
        if (!term.string.isIdentity())
            ++n;
    return n;
}

double
PauliSum::normalizedTrace() const
{
    for (const auto &term : terms_)
        if (term.string.isIdentity())
            return term.coefficient;
    return 0.0;
}

void
PauliSum::applyTo(const CVector &x, CVector &y) const
{
    const std::size_t dim = std::size_t{1} << numQubits_;
    assert(x.size() == dim);
    y.assign(dim, Complex(0.0, 0.0));

    static const Complex kPhases[4] = {
        Complex(1, 0), Complex(0, 1), Complex(-1, 0), Complex(0, -1)};

    for (const auto &term : terms_) {
        const std::uint64_t xm = term.string.xMask();
        const std::uint64_t zm = term.string.zMask();
        const Complex base =
            term.coefficient * kPhases[term.string.yCount() % 4];
        for (std::size_t b = 0; b < dim; ++b) {
            // P|b> = i^{|Y|} (-1)^{popcount(b & z)} |b ^ x>.
            const int sign = std::popcount(b & zm) & 1 ? -1 : 1;
            y[b ^ xm] += base * static_cast<double>(sign) * x[b];
        }
    }
}

void
PauliSum::scaleCoefficients(double factor)
{
    for (auto &term : terms_)
        term.coefficient *= factor;
}

std::string
PauliSum::toString(std::size_t max_terms) const
{
    std::ostringstream os;
    os << "PauliSum(" << numQubits_ << " qubits, " << terms_.size()
       << " terms)";
    std::size_t shown = 0;
    for (const auto &term : terms_) {
        if (shown++ >= max_terms) {
            os << "\n  ...";
            break;
        }
        os << "\n  " << (term.coefficient >= 0 ? "+" : "")
           << term.coefficient << " * " << term.string.toLabel();
    }
    return os.str();
}

AlignedTerms
alignTerms(const std::vector<PauliSum> &hamiltonians)
{
    AlignedTerms out;
    if (hamiltonians.empty())
        return out;

    // Deterministic superset ordering via an ordered map.
    std::map<PauliString, std::size_t> index;
    for (const auto &h : hamiltonians)
        for (const auto &term : h.terms())
            index.emplace(term.string, 0);

    std::size_t k = 0;
    out.strings.reserve(index.size());
    for (auto &[string, position] : index) {
        position = k++;
        out.strings.push_back(string);
    }

    out.coefficients.assign(
        hamiltonians.size(), std::vector<double>(out.strings.size(), 0.0));
    for (std::size_t i = 0; i < hamiltonians.size(); ++i)
        for (const auto &term : hamiltonians[i].terms())
            out.coefficients[i][index.at(term.string)] = term.coefficient;
    return out;
}

PauliSum
mixedHamiltonian(const std::vector<PauliSum> &hamiltonians)
{
    assert(!hamiltonians.empty());
    PauliSum mixed(hamiltonians.front().numQubits());
    const double inv = 1.0 / static_cast<double>(hamiltonians.size());
    for (const auto &h : hamiltonians)
        mixed.addScaled(h, inv);
    mixed.compress(0.0);
    return mixed;
}

double
l1Distance(const AlignedTerms &aligned, std::size_t i, std::size_t j)
{
    assert(i < aligned.coefficients.size());
    assert(j < aligned.coefficients.size());
    const auto &ci = aligned.coefficients[i];
    const auto &cj = aligned.coefficients[j];
    double s = 0.0;
    for (std::size_t k = 0; k < ci.size(); ++k)
        s += std::fabs(ci[k] - cj[k]);
    return s;
}

double
l1Distance(const PauliSum &a, const PauliSum &b)
{
    const AlignedTerms aligned = alignTerms({a, b});
    return l1Distance(aligned, 0, 1);
}

} // namespace treevqa
