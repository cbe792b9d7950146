#include "sim/expectation.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "sim/bit_ops.h"

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

/** One X-mask group member, flattened for the hot loop. */
struct GroupMember
{
    std::uint64_t zMask;
    std::size_t outIndex;
    double weight; ///< +-2 (off-diagonal) or +-1 (diagonal) phase factor
};

/** |x|^2 in real arithmetic. */
inline double
norm2(const Complex &x)
{
    return x.real() * x.real() + x.imag() * x.imag();
}

/**
 * One X-mask group, prepared for block-parallel evaluation. The block
 * loop is the hot path; every (group, block) pair is an independent
 * task whose per-member dot products land in block-indexed partial
 * slots, and the final reduction walks blocks in ascending order —
 * so the summation order (and therefore the result, bitwise) is the
 * same for any thread count, including the serial path.
 *
 * Every member's Z-parity sign splits as sign(k) = sign(k0) * sign(j)
 * for a block-aligned k0, so the per-j factor is the same for every
 * block: it is built once per group as a +-1 lookup table, and the
 * member loop over a block becomes a pure multiply-accumulate stream
 * with no per-element popcount.
 */
struct GroupTask
{
    std::uint64_t xm = 0;
    std::size_t hbit = 0; ///< pairing bit (0 for diagonal groups)
    std::size_t range = 0; ///< dim (diagonal) or dim/2 (off-diagonal)
    std::size_t nblocks = 0;
    std::size_t lutLen = 0;
    std::vector<GroupMember> membersRe, membersIm;
    std::vector<double> lutRe, lutIm;
    /** Per-block partial sums, nblocks x members, block-major. */
    std::vector<double> partialRe, partialIm;
};

/** Per-member (-1)^{popcount(j & zMask)} tables for j < lut_len, built
 * by doubling: each Z bit below lut_len negates the upper half. */
void
buildLuts(const std::vector<GroupMember> &members,
          std::vector<double> &luts, std::size_t lut_len)
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

/** Evaluate one block of one group into its partial slots. */
void
processBlock(const GroupTask &task, std::size_t block,
             const Complex *amps, double *partial_re,
             double *partial_im)
{
    alignas(64) double tre[kBlockSize], tim[kBlockSize];
    const std::size_t k0 = block * kBlockSize;
    const std::size_t kn = std::min(kBlockSize, task.range - k0);

    if (task.hbit == 0) {
        // Diagonal group: one probability pass serves all members.
        const Complex *p = amps + k0;
        for (std::size_t j = 0; j < kn; ++j)
            tre[j] = norm2(p[j]);
    } else {
        // t = conj(a[b ^ x]) * a[b] for b = expandBit(k, hbit). Over an
        // aligned run as long as the lowest X bit, b and its partner
        // b ^ x both advance by one, so the run is two contiguous
        // streams.
        const std::size_t run =
            std::min(std::size_t{1} << std::countr_zero(task.xm), kn);
        for (std::size_t s = 0; s < kn; s += run) {
            const std::size_t b = expandBit(k0 + s, task.hbit);
            const Complex *pa = amps + b;
            const Complex *pb = amps + (b ^ task.xm);
            for (std::size_t j = 0; j < run; ++j) {
                const Complex t = cmul(std::conj(pb[j]), pa[j]);
                tre[s + j] = t.real();
                tim[s + j] = t.imag();
            }
        }
    }

    for (std::size_t m = 0; m < task.membersRe.size(); ++m)
        partial_re[m] = paritySign(k0, task.membersRe[m].zMask)
                      * signedSum(task.lutRe.data() + m * task.lutLen,
                                  tre, kn);
    for (std::size_t m = 0; m < task.membersIm.size(); ++m)
        partial_im[m] = paritySign(k0, task.membersIm[m].zMask)
                      * signedSum(task.lutIm.data() + m * task.lutLen,
                                  tim, kn);
}

} // namespace

std::vector<double>
perStringExpectations(const Statevector &state,
                      const std::vector<PauliString> &strings)
{
    const CVector &amps = state.amplitudes();
    const std::size_t dim = amps.size();
    std::vector<double> out(strings.size(), 0.0);

    // Group string indices by X mask.
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> groups;
    groups.reserve(strings.size());
    for (std::size_t k = 0; k < strings.size(); ++k) {
        assert(strings[k].numQubits() == state.numQubits());
        if (strings[k].isIdentity()) {
            out[k] = 1.0;
            continue;
        }
        groups[strings[k].xMask()].push_back(k);
    }

    // Prepare one GroupTask per X-mask group (members, sign LUTs,
    // block-indexed partial slots). See file comment for the pairing
    // symmetry behind the off-diagonal path: pairing on the *highest*
    // X bit keeps both amplitude streams (nearly) sequential, member
    // signs are evaluated in the compressed index space k with
    // parity(b & z) == parity(k & compress(z)), and members split by
    // Y-count parity — even-|Y| members read Re(t), odd-|Y| members
    // read Im(t), with weight +-2 folding the canonical i^{|Y|} phase.
    std::vector<GroupTask> tasks;
    tasks.reserve(groups.size());
    for (const auto &[xm, indices] : groups) {
        GroupTask task;
        task.xm = xm;
        if (xm == 0) {
            task.hbit = 0;
            task.range = dim;
            for (std::size_t idx : indices)
                task.membersRe.push_back(
                    GroupMember{strings[idx].zMask(), idx, 1.0});
        } else {
            const std::size_t hbit = std::bit_floor(xm);
            task.hbit = hbit;
            task.range = dim >> 1;
            for (std::size_t idx : indices) {
                const int y = strings[idx].yCount();
                const double w =
                    (y % 4 == 0 || y % 4 == 3) ? 2.0 : -2.0;
                const std::uint64_t zm = strings[idx].zMask();
                const std::uint64_t zmc = (zm & (hbit - 1))
                    | ((zm >> 1) & ~(hbit - 1));
                const GroupMember gm{zmc, idx, w};
                if (y % 2 == 0)
                    task.membersRe.push_back(gm);
                else
                    task.membersIm.push_back(gm);
            }
        }
        task.nblocks = (task.range + kBlockSize - 1) / kBlockSize;
        task.lutLen = std::min(kBlockSize, task.range);
        buildLuts(task.membersRe, task.lutRe, task.lutLen);
        buildLuts(task.membersIm, task.lutIm, task.lutLen);
        task.partialRe.resize(task.nblocks * task.membersRe.size());
        task.partialIm.resize(task.nblocks * task.membersIm.size());
        tasks.push_back(std::move(task));
    }

    // Flatten to (group, block) work items and fan out over the pool.
    std::vector<std::pair<std::size_t, std::size_t>> work;
    for (std::size_t g = 0; g < tasks.size(); ++g)
        for (std::size_t b = 0; b < tasks[g].nblocks; ++b)
            work.emplace_back(g, b);
    ThreadPool::global().run(work.size(), [&](std::size_t w) {
        const auto [g, b] = work[w];
        GroupTask &task = tasks[g];
        processBlock(task, b, amps.data(),
                     task.partialRe.data() + b * task.membersRe.size(),
                     task.partialIm.data() + b * task.membersIm.size());
    });

    // Ordered reduction: blocks in ascending order per member, which
    // reproduces the serial accumulation order bit-for-bit.
    for (const GroupTask &task : tasks) {
        for (std::size_t m = 0; m < task.membersRe.size(); ++m) {
            double acc = 0.0;
            for (std::size_t b = 0; b < task.nblocks; ++b)
                acc += task.partialRe[b * task.membersRe.size() + m];
            out[task.membersRe[m].outIndex] =
                task.membersRe[m].weight * acc;
        }
        for (std::size_t m = 0; m < task.membersIm.size(); ++m) {
            double acc = 0.0;
            for (std::size_t b = 0; b < task.nblocks; ++b)
                acc += task.partialIm[b * task.membersIm.size() + m];
            out[task.membersIm[m].outIndex] =
                task.membersIm[m].weight * acc;
        }
    }
    return out;
}

double
expectation(const Statevector &state, const PauliString &string)
{
    return perStringExpectations(state, {string}).front();
}

double
expectation(const Statevector &state, const PauliSum &hamiltonian)
{
    std::vector<PauliString> strings;
    std::vector<double> coefficients;
    strings.reserve(hamiltonian.numTerms());
    coefficients.reserve(hamiltonian.numTerms());
    for (const auto &term : hamiltonian.terms()) {
        strings.push_back(term.string);
        coefficients.push_back(term.coefficient);
    }
    return recombine(coefficients,
                     perStringExpectations(state, strings));
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
