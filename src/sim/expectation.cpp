#include "sim/expectation.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <unordered_map>

#include "common/thread_pool.h"
#include "sim/bit_ops.h"

#ifdef __AVX512F__
#include <immintrin.h>
#endif

namespace treevqa {

namespace {

/**
 * The batched evaluator exploits a pairing symmetry: for a string with
 * X mask x != 0, the amplitude pairs (b, b ^ x) contribute
 *
 *   sign(b) * [t + (-1)^{|Y|} conj(t)],   t = conj(a[b^x]) * a[b],
 *
 * because sign(b ^ x) = sign(b) * (-1)^{popcount(x & z)}. So only half
 * the basis states need visiting, and after multiplying by the
 * canonical phase i^{|Y|} the per-member contribution collapses to a
 * purely *real* accumulation of either Re(t) (|Y| even) or Im(t)
 * (|Y| odd) with weight +-2. Amplitudes are processed in cache-sized
 * blocks whose t values are shared by every member of the X-mask
 * group; the member loop runs branch-free over a contiguous zMask
 * array. Every product is spelled out in real arithmetic: a
 * std::complex product compiles to the __muldc3 library call, which
 * no loop vectorizes.
 */

/** Amplitudes per block: 3 doubles/entry keeps a block well inside L1. */
constexpr std::size_t kBlockSize = 1024;

/** |x|^2 in real arithmetic. */
inline double
norm2(const Complex &x)
{
    return x.real() * x.real() + x.imag() * x.imag();
}

/** Per-member (-1)^{popcount(j & zMask)} tables for j < lut_len, built
 * by doubling: each Z bit below lut_len negates the upper half. */
template <typename Member>
void
buildLuts(const std::vector<Member> &members, std::vector<double> &luts,
          std::size_t lut_len)
{
    luts.resize(members.size() * lut_len);
    for (std::size_t m = 0; m < members.size(); ++m) {
        double *lut = luts.data() + m * lut_len;
        lut[0] = 1.0;
        for (std::size_t half = 1; half < lut_len; half <<= 1) {
            const double sign = members[m].zMask & half ? -1.0 : 1.0;
            for (std::size_t j = 0; j < half; ++j)
                lut[half + j] = sign * lut[j];
        }
    }
}

/**
 * sum_j lut[j] * t[j], accumulated into 8 independent partial sums
 * (lane j % 8) and combined in a fixed tree. One serial FMA chain
 * would be bound by FMA latency; the lane order is fixed, so the
 * result does not depend on how blocks are spread over threads.
 */
double
signedSum(const double *lut, const double *t, std::size_t n)
{
    double acc[8] = {};
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8)
        for (std::size_t l = 0; l < 8; ++l)
            acc[l] += lut[j + l] * t[j + l];
    for (std::size_t l = 0; j + l < n; ++l)
        acc[l] += lut[j + l] * t[j + l];
    return ((acc[0] + acc[1]) + (acc[2] + acc[3]))
         + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/** The strings of a Pauli sum, in term order. */
std::vector<PauliString>
termStrings(const PauliSum &hamiltonian)
{
    std::vector<PauliString> strings;
    strings.reserve(hamiltonian.numTerms());
    for (const auto &term : hamiltonian.terms())
        strings.push_back(term.string);
    return strings;
}

} // namespace

namespace detail {

/** Over an aligned run as long as the lowest X bit, b and its partner
 * b ^ x both advance by one, so the run is two contiguous streams. */
void
pairProductRuns(std::uint64_t xm, std::size_t hbit, std::size_t k0,
                std::size_t kn, const Complex *amps, double *tre,
                double *tim)
{
    const std::size_t run =
        std::min(std::size_t{1} << std::countr_zero(xm), kn);
    for (std::size_t s = 0; s < kn; s += run) {
        const std::size_t b = expandBit(k0 + s, hbit);
        const Complex *pa = amps + b;
        const Complex *pb = amps + (b ^ xm);
        for (std::size_t j = 0; j < run; ++j) {
            const Complex t = cmulFused(std::conj(pb[j]), pa[j]);
            tre[s + j] = t.real();
            tim[s + j] = t.imag();
        }
    }
}

#ifdef __AVX512F__
/**
 * Eight k at a time in one flat walk: no loop per run, which is one
 * pair long for X_0. Eight aligned k and their partners lie in two
 * 8-amplitude windows (the 16 amplitudes from b = 2k when the pairing
 * bit is below 8, else the run's 8 and the partner's aligned 8), so
 * two permutes and a blend gather each of Re a, Im a, Re partner and
 * Im partner. Each part is one fused product plus the rounded product
 * of the partner's imaginary part: cmulFused's contraction, as in
 * pairProductRuns.
 */
void
pairProducts8(std::uint64_t xm, std::size_t hbit, std::size_t k0,
              std::size_t kn, const Complex *amps, double *tre,
              double *tim)
{
    // Window positions (in doubles, 0..31) of each lane's amplitude
    // and partner; position 16 and up is the second window.
    alignas(64) std::int64_t pos[4][8];
    for (std::size_t i = 0; i < 8; ++i) {
        const std::size_t a = hbit < 8 ? expandBit(i, hbit) : i;
        const std::size_t p = hbit < 8 ? a ^ xm : 8 + (i ^ (xm & 7));
        pos[0][i] = static_cast<std::int64_t>(2 * a);
        pos[1][i] = static_cast<std::int64_t>(2 * a + 1);
        pos[2][i] = static_cast<std::int64_t>(2 * p);
        pos[3][i] = static_cast<std::int64_t>(2 * p + 1);
    }
    __m512i idx[4];
    __mmask8 second[4];
    for (int v = 0; v < 4; ++v) {
        idx[v] = _mm512_load_si512(pos[v]);
        second[v] = _mm512_test_epi64_mask(idx[v], _mm512_set1_epi64(16));
    }
    const double *d = reinterpret_cast<const double *>(amps);
    for (std::size_t j = 0; j < kn; j += 8) {
        const std::size_t k = k0 + j;
        const std::size_t w0 = hbit < 8 ? 2 * k : expandBit(k, hbit);
        const std::size_t w1 = hbit < 8 ? w0 + 8 : w0 ^ (xm & ~7ull);
        const __m512d lo0 = _mm512_loadu_pd(d + 2 * w0);
        const __m512d hi0 = _mm512_loadu_pd(d + 2 * w0 + 8);
        const __m512d lo1 = _mm512_loadu_pd(d + 2 * w1);
        const __m512d hi1 = _mm512_loadu_pd(d + 2 * w1 + 8);
        __m512d v[4];
        for (int q = 0; q < 4; ++q)
            v[q] = _mm512_mask_blend_pd(
                second[q], _mm512_permutex2var_pd(lo0, idx[q], hi0),
                _mm512_permutex2var_pd(lo1, idx[q], hi1));
        _mm512_store_pd(tre + j,
                        _mm512_fmadd_pd(v[2], v[0],
                                        _mm512_mul_pd(v[3], v[1])));
        _mm512_store_pd(tim + j,
                        _mm512_fmsub_pd(v[2], v[1],
                                        _mm512_mul_pd(v[3], v[0])));
    }
}
#endif

} // namespace detail

/**
 * Every (group, block) work item lands its per-member dot products in
 * block-indexed partial slots, and the final reduction walks blocks in
 * ascending order — so the summation order (and therefore the result,
 * bitwise) is the same for any thread count, including the serial
 * path.
 *
 * Every member's Z-parity sign splits as sign(k) = sign(k0) * sign(j)
 * for a block-aligned k0, so the per-j factor is the same for every
 * block: it is built once per group as a +-1 lookup table, and the
 * member loop over a block becomes a pure multiply-accumulate stream
 * with no per-element popcount.
 */
ExpectationPlan::ExpectationPlan(const std::vector<PauliString> &strings,
                                 int num_qubits)
    : numQubits_(num_qubits), numStrings_(strings.size())
{
    const std::size_t dim = std::size_t{1} << num_qubits;

    // Group string indices by X mask, in first-appearance order.
    std::unordered_map<std::uint64_t, std::size_t> group_of;
    for (std::size_t k = 0; k < strings.size(); ++k) {
        assert(strings[k].numQubits() == num_qubits);
        if (strings[k].isIdentity()) {
            identities_.push_back(k);
            continue;
        }
        const std::uint64_t xm = strings[k].xMask();
        const auto [it, inserted] = group_of.emplace(xm, groups_.size());
        if (inserted) {
            Group group;
            group.xm = xm;
            // See the file comment for the pairing symmetry behind the
            // off-diagonal path: pairing on the *highest* X bit keeps
            // both amplitude streams (nearly) sequential.
            group.hbit = xm == 0 ? 0 : std::bit_floor(xm);
            group.range = xm == 0 ? dim : dim >> 1;
            group.nblocks = (group.range + kBlockSize - 1) / kBlockSize;
            group.lutLen = std::min(kBlockSize, group.range);
            groups_.push_back(std::move(group));
        }
        Group &group = groups_[it->second];
        const std::uint64_t zm = strings[k].zMask();
        if (xm == 0) {
            group.membersRe.push_back(Member{zm, k, 1.0});
            continue;
        }
        // Member signs are evaluated in the compressed index space k
        // with parity(b & z) == parity(k & compress(z)); members split
        // by Y-count parity — even-|Y| members read Re(t), odd-|Y|
        // members read Im(t), with weight +-2 folding the canonical
        // i^{|Y|} phase.
        const std::size_t hbit = group.hbit;
        const int y = strings[k].yCount();
        const double w = (y % 4 == 0 || y % 4 == 3) ? 2.0 : -2.0;
        const std::uint64_t zmc =
            (zm & (hbit - 1)) | ((zm >> 1) & ~(hbit - 1));
        (y % 2 == 0 ? group.membersRe : group.membersIm)
            .push_back(Member{zmc, k, w});
    }

    // Sign tables, partial-buffer slices and the flat work list.
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        Group &group = groups_[g];
        buildLuts(group.membersRe, group.lutRe, group.lutLen);
        buildLuts(group.membersIm, group.lutIm, group.lutLen);
        group.partialRe = partialSize_;
        partialSize_ += group.nblocks * group.membersRe.size();
        group.partialIm = partialSize_;
        partialSize_ += group.nblocks * group.membersIm.size();
        for (std::size_t b = 0; b < group.nblocks; ++b)
            work_.push_back(WorkItem{g, b});
    }
}

ExpectationPlan::ExpectationPlan(const PauliSum &hamiltonian)
    : ExpectationPlan(termStrings(hamiltonian), hamiltonian.numQubits())
{
}

/** Evaluate one block of one group into its partial slots. */
void
ExpectationPlan::processBlock(const Group &group, std::size_t block,
                              const Complex *amps, double *partial)
{
    alignas(64) double tre[kBlockSize], tim[kBlockSize];
    const std::size_t k0 = block * kBlockSize;
    const std::size_t kn = std::min(kBlockSize, group.range - k0);

    if (group.hbit == 0) {
        // Diagonal group: one probability pass serves all members.
        const Complex *p = amps + k0;
        for (std::size_t j = 0; j < kn; ++j)
            tre[j] = norm2(p[j]);
    } else {
        // t = conj(a[b ^ x]) * a[b] for b = expandBit(k, hbit).
#ifdef __AVX512F__
        if (kn % 8 == 0)
            detail::pairProducts8(group.xm, group.hbit, k0, kn, amps, tre,
                                  tim);
        else
#endif
            detail::pairProductRuns(group.xm, group.hbit, k0, kn, amps,
                                    tre, tim);
    }

    const std::size_t nre = group.membersRe.size();
    const std::size_t nim = group.membersIm.size();
    double *partial_re = partial + group.partialRe + block * nre;
    double *partial_im = partial + group.partialIm + block * nim;
    for (std::size_t m = 0; m < nre; ++m)
        partial_re[m] = paritySign(k0, group.membersRe[m].zMask)
                      * signedSum(group.lutRe.data() + m * group.lutLen,
                                  tre, kn);
    for (std::size_t m = 0; m < nim; ++m)
        partial_im[m] = paritySign(k0, group.membersIm[m].zMask)
                      * signedSum(group.lutIm.data() + m * group.lutLen,
                                  tim, kn);
}

std::vector<double>
ExpectationPlan::evaluate(const Statevector &state) const
{
    assert(state.numQubits() == numQubits_);
    const Complex *amps = state.amplitudes().data();
    std::vector<double> out(numStrings_, 0.0);
    for (std::size_t k : identities_)
        out[k] = 1.0;

    // Block partials: on the stack for the small plans of the paper's
    // sizes, so a serial evaluation allocates only its result.
    constexpr std::size_t kInlinePartials = 512;
    double inline_partial[kInlinePartials];
    std::vector<double> heap_partial;
    double *partial = inline_partial;
    if (partialSize_ > kInlinePartials) {
        heap_partial.resize(partialSize_);
        partial = heap_partial.data();
    }
    const auto item = [&](std::size_t w) {
        processBlock(groups_[work_[w].group], work_[w].block, amps,
                     partial);
    };
    if (state.dim() >= kParallelMinDim)
        ThreadPool::global().run(work_.size(), item);
    else
        for (std::size_t w = 0; w < work_.size(); ++w)
            item(w);

    // Ordered reduction: blocks in ascending order per member, which
    // reproduces the serial accumulation order bit-for-bit.
    const auto reduce = [&](const std::vector<Member> &members,
                            std::size_t offset, std::size_t nblocks) {
        for (std::size_t m = 0; m < members.size(); ++m) {
            double acc = 0.0;
            for (std::size_t b = 0; b < nblocks; ++b)
                acc += partial[offset + b * members.size() + m];
            out[members[m].outIndex] = members[m].weight * acc;
        }
    };
    for (const Group &group : groups_) {
        reduce(group.membersRe, group.partialRe, group.nblocks);
        reduce(group.membersIm, group.partialIm, group.nblocks);
    }
    return out;
}

std::vector<double>
perStringExpectations(const Statevector &state,
                      const std::vector<PauliString> &strings)
{
    return ExpectationPlan(strings, state.numQubits()).evaluate(state);
}

double
expectation(const Statevector &state, const PauliString &string)
{
    return perStringExpectations(state, {string}).front();
}

double
expectation(const Statevector &state, const PauliSum &hamiltonian)
{
    return recombine(termCoefficients(hamiltonian),
                     ExpectationPlan(hamiltonian).evaluate(state));
}

std::vector<double>
termCoefficients(const PauliSum &hamiltonian)
{
    std::vector<double> coefficients;
    coefficients.reserve(hamiltonian.numTerms());
    for (const auto &term : hamiltonian.terms())
        coefficients.push_back(term.coefficient);
    return coefficients;
}

double
recombine(const std::vector<double> &coefficients,
          const std::vector<double> &term_expectations)
{
    assert(coefficients.size() == term_expectations.size());
    double s = 0.0;
    for (std::size_t k = 0; k < coefficients.size(); ++k)
        s += coefficients[k] * term_expectations[k];
    return s;
}

} // namespace treevqa
