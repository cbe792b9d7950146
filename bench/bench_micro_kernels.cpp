/**
 * @file
 * Microbenchmarks of the hot kernels underneath every experiment: gate
 * application, batched Pauli expectations, the exact ground-state
 * solvers and the cluster objective evaluation. Each optimized kernel
 * is timed against its pre-optimization reference (see
 * sim/reference_kernels.h) over a qubit sweep, so the speedup
 * trajectory stays measurable across PRs.
 *
 * Kernel series also carry the bytes they must move; each qubit count
 * times a memcpy over a state-sized buffer in the same run, so every
 * kernel reports GB/s and its share of that copy bandwidth (the
 * roofline). Series timed against a naive reference kernel are marked
 * `naiveRef`: an optimized kernel slower than its reference is a bug.
 *
 * Self-contained harness (no google-benchmark): results are printed as
 * a table and mirrored machine-readably into BENCH_micro_kernels.json
 * in the working directory.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "circuit/hardware_efficient.h"
#include "common/event_log.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/objective.h"
#include "dist/supervisor.h"
#include "dist/work_claim.h"
#include "dist/worker_daemon.h"
#include "ham/spin_chains.h"
#include "ham/synthetic_molecule.h"
#include "linalg/jacobi.h"
#include "linalg/lanczos.h"
#include "paulprop/pauli_propagation.h"
#include "sim/expectation.h"
#include "sim/reference_kernels.h"
#include "svc/job_scheduler.h"
#include "svc/result_store.h"
#include "svc/sweep_dir.h"

using namespace treevqa;

namespace {

/** One timed kernel (ref_ns == 0 means no reference counterpart). */
struct BenchResult
{
    std::string name;
    int qubits;
    double fastNs;
    double refNs;
    /** Bytes the kernel must read and write per call (0: not a
     * bandwidth-bound kernel series). */
    double bytes = 0.0;
    /** The reference is a naive kernel from sim/reference_kernels.h. */
    bool naiveRef = false;

    double speedup() const { return refNs > 0.0 ? refNs / fastNs : 0.0; }
    double gbps() const { return bytes / fastNs; }
};

/**
 * ns per call: one warmup call, then repeat until ~80 ms of samples or
 * 64 reps, whichever first, and report the minimum (the usual
 * least-noise estimator for deterministic kernels).
 */
double
timeNs(const std::function<void()> &fn)
{
    using clock = std::chrono::steady_clock;
    fn(); // warmup
    double best = 1e30;
    double total = 0.0;
    for (int rep = 0; rep < 64 && total < 80e6; ++rep) {
        const auto t0 = clock::now();
        fn();
        const auto t1 = clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count();
        best = std::min(best, ns);
        total += ns;
    }
    return best;
}

/** timeNs for a kernel and its reference, alternating one sample of
 * each per repetition so both minima come from the same time window:
 * a shared VM's speed drifts over seconds, and timing one side after
 * the other lets a slow spell land on one side only. */
std::pair<double, double>
timePairNs(const std::function<void()> &fast,
           const std::function<void()> &ref)
{
    using clock = std::chrono::steady_clock;
    const auto sample = [](const std::function<void()> &fn) {
        const auto t0 = clock::now();
        fn();
        return std::chrono::duration<double, std::nano>(clock::now()
                                                        - t0)
            .count();
    };
    fast(); // warmup
    ref();
    double best_fast = 1e30, best_ref = 1e30;
    double total = 0.0;
    for (int rep = 0; rep < 64 && total < 160e6; ++rep) {
        const double f = sample(fast);
        const double r = sample(ref);
        best_fast = std::min(best_fast, f);
        best_ref = std::min(best_ref, r);
        total += f + r;
    }
    return {best_fast, best_ref};
}

/** A pseudo-random normalized n-qubit state. */
Statevector
randomState(int n, std::uint64_t seed)
{
    Rng rng(seed);
    Statevector s(n);
    for (int g = 0; g < 6 * n; ++g) {
        const int q = static_cast<int>(rng.uniformInt(n));
        const int p = static_cast<int>((q + 1) % n);
        switch (rng.uniformInt(5)) {
          case 0: s.applyRx(q, rng.uniform(-3, 3)); break;
          case 1: s.applyRy(q, rng.uniform(-3, 3)); break;
          case 2: s.applyRz(q, rng.uniform(-3, 3)); break;
          case 3: s.applyCx(q, p); break;
          default: s.applyH(q); break;
        }
    }
    return s;
}

/** Random Pauli set with deliberate X-mask collisions (chemistry-like:
 * several members per measurement group). */
std::vector<PauliString>
randomStrings(int n, int num_groups, int members_per_group,
              std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<PauliString> strings;
    const char ops[4] = {'I', 'X', 'Y', 'Z'};
    for (int g = 0; g < num_groups; ++g) {
        PauliString base(n);
        for (int q = 0; q < n; ++q)
            base.setOp(q, ops[rng.uniformInt(4)]);
        strings.push_back(base);
        for (int m = 1; m < members_per_group; ++m) {
            PauliString sib = base;
            for (int q = 0; q < n; ++q) {
                if (rng.uniformInt(2) == 0)
                    continue;
                const char c = sib.opAt(q);
                if (c == 'I')
                    sib.setOp(q, 'Z');
                else if (c == 'Z')
                    sib.setOp(q, 'I');
                else if (c == 'X')
                    sib.setOp(q, 'Y');
                else
                    sib.setOp(q, 'X');
            }
            strings.push_back(sib);
        }
    }
    return strings;
}

std::vector<BenchResult> g_results;

void
record(const std::string &name, int qubits, double fast_ns,
       double ref_ns, double bytes = 0.0, bool naive_ref = false)
{
    g_results.push_back(
        BenchResult{name, qubits, fast_ns, ref_ns, bytes, naive_ref});
    const BenchResult &r = g_results.back();
    std::printf("  %-24s %2dq  %12.0f ns", name.c_str(), qubits,
                fast_ns);
    if (ref_ns > 0.0)
        std::printf("  ref %12.0f ns  %6.2fx", ref_ns, r.speedup());
    if (bytes > 0.0)
        std::printf("  %6.1f GB/s", r.gbps());
    std::printf("\n");
}

/** A kernel timed against its naive reference kernel. */
void
recordKernel(const std::string &name, int qubits, double fast_ns,
             double ref_ns, double bytes)
{
    record(name, qubits, fast_ns, ref_ns, bytes, true);
}

/** Bytes one full read-and-write pass over an n-qubit state moves. */
double
stateBytes(int n)
{
    return 2.0 * static_cast<double>(sizeof(Complex))
         * static_cast<double>(std::size_t{1} << n);
}

/**
 * The roofline: memcpy of one half of an n-qubit state onto the other,
 * so the copy has the in-place kernels' footprint (one state) and
 * moves half of stateBytes(n), read + write. From 16 qubits, where the
 * kernels' chunk loop goes parallel, it is split over the same pool
 * lanes in 64 KiB pieces; below that it is a plain loop, because an
 * OpenMP region costs its fork/join even when its `if` is false and
 * the kernels no longer pay that cost.
 */
void
benchMemcpy(int n)
{
    const std::size_t half = sizeof(Complex) << (n - 1);
    const std::size_t piece = std::min<std::size_t>(half, 64 << 10);
    const auto pieces = static_cast<std::ptrdiff_t>(half / piece);
    std::vector<char> state(2 * half, 1);
    char *src = state.data();
    char *dst = state.data() + half;
    const auto copy = [&](std::ptrdiff_t p) {
        std::memcpy(dst + p * piece, src + p * piece, piece);
    };
    record("memcpy", n, timeNs([&] {
               if (n < 16) {
                   for (std::ptrdiff_t p = 0; p < pieces; ++p)
                       copy(p);
               } else {
#pragma omp parallel for \
    num_threads(static_cast<int>(ThreadPool::global().numThreads()))
                   for (std::ptrdiff_t p = 0; p < pieces; ++p)
                       copy(p);
               }
               std::swap(src, dst);
           }),
           0.0, stateBytes(n) / 2);
}

void
benchGateKernels(int n)
{
    Statevector sv = randomState(n, 17);
    const int a = 1;
    const int b = n / 2;
    double theta = 0.3;
    const double full = stateBytes(n);
    const double half = full / 2; // kernels touching one half

    recordKernel(
        "rxx", n, timeNs([&] { sv.applyRxx(a, b, theta); theta += 1e-4; }),
        timeNs([&] { refApplyRxx(sv, a, b, theta); theta += 1e-4; }),
        full);
    recordKernel(
        "ryy", n, timeNs([&] { sv.applyRyy(a, b, theta); theta += 1e-4; }),
        timeNs([&] { refApplyRyy(sv, a, b, theta); theta += 1e-4; }),
        full);
    recordKernel(
        "rzz", n, timeNs([&] { sv.applyRzz(a, b, theta); theta += 1e-4; }),
        timeNs([&] { refApplyRzz(sv, a, b, theta); theta += 1e-4; }),
        full);
    recordKernel("cx", n, timeNs([&] { sv.applyCx(a, b); }),
                 timeNs([&] { refApplyCx(sv, a, b); }), half);
    recordKernel("x", n, timeNs([&] { sv.applyX(a); }),
                 timeNs([&] { refApplyX(sv, a); }), full);
    recordKernel("z", n, timeNs([&] { sv.applyZ(a); }),
                 timeNs([&] { refApplyZ(sv, a); }), half);
    recordKernel("s", n, timeNs([&] { sv.applyS(a); }),
                 timeNs([&] { refApplyS(sv, a); }), half);

    // The fused 1-qubit kernel on the lowest, a low and the highest
    // target: q = 0 and 1 walk grouped pairs, q = n-1 strides past
    // one chunk.
    for (const int q : {0, a, n - 1}) {
        const std::string suffix = q == a ? ""
                                 : q == 0 ? "_q0"
                                          : "_qlast";
        recordKernel("h" + suffix, n, timeNs([&] { sv.applyH(q); }),
                     timeNs([&] { refApplyH(sv, q); }), full);
        const auto ry = [&] {
            const double c = std::cos(theta / 2.0);
            const double s = std::sin(theta / 2.0);
            theta += 1e-4;
            return Gate1q{Complex(c, 0), Complex(-s, 0), Complex(s, 0),
                          Complex(c, 0)};
        };
        recordKernel("ry" + suffix, n,
                     timeNs([&] { sv.applyRy(q, theta); theta += 1e-4; }),
                     timeNs([&] { refApplyGate1(sv, q, ry()); }), full);
    }

    // A full rotation layer (the HEA building block).
    record("rotation_layer", n, timeNs([&] {
               for (int q = 0; q < n; ++q)
                   sv.applyRy(q, theta);
               theta += 1e-4;
           }),
           0.0, n * full);
}

/** The ansatz's unfused gates, one reference kernel call each, from
 * its basis state (the pre-compilation preparation). */
void
refPrepare(const Ansatz &ansatz, const std::vector<double> &theta,
           Statevector &state)
{
    state.setBasisState(ansatz.initialBits());
    const auto rotation = [](GateOp op, double angle) {
        const double c = std::cos(angle / 2.0);
        const double s = std::sin(angle / 2.0);
        switch (op) {
          case GateOp::Rx:
            return Gate1q{Complex(c, 0), Complex(0, -s), Complex(0, -s),
                          Complex(c, 0)};
          case GateOp::Ry:
            return Gate1q{Complex(c, 0), Complex(-s, 0), Complex(s, 0),
                          Complex(c, 0)};
          default:
            return Gate1q{Complex(c, -s), Complex(0, 0), Complex(0, 0),
                          Complex(c, s)};
        }
    };
    for (const GateInstr &g : ansatz.circuit().gates()) {
        const double angle = g.paramIndex >= 0
            ? g.scale * theta[g.paramIndex] + g.offset
            : g.offset;
        switch (g.op) {
          case GateOp::Rx:
          case GateOp::Ry:
          case GateOp::Rz:
            refApplyGate1(state, g.q0, rotation(g.op, angle));
            break;
          case GateOp::H: refApplyH(state, g.q0); break;
          case GateOp::X: refApplyX(state, g.q0); break;
          case GateOp::S: refApplyS(state, g.q0); break;
          case GateOp::Sdg: refApplySdg(state, g.q0); break;
          case GateOp::Cx: refApplyCx(state, g.q0, g.q1); break;
          case GateOp::Cz:
            refApplyGate2(state, g.q0, g.q1, czMatrix());
            break;
          case GateOp::Rzz: refApplyRzz(state, g.q0, g.q1, angle); break;
          case GateOp::Rxx: refApplyRxx(state, g.q0, g.q1, angle); break;
          case GateOp::Ryy: refApplyRyy(state, g.q0, g.q1, angle); break;
        }
    }
}

/**
 * The paper's scale (4-8 qubits, the 6-site TFIM families): per-call
 * dispatch, not bandwidth, sets the time, so these series carry no
 * bytes. Each sample times kReps calls, so the clock read does not
 * swamp a ~30 ns kernel, and kernel and reference samples alternate
 * (timePairNs), so a drift of the VM's speed cannot land on one side
 * only.
 */
void
benchPaperScaleKernels(int n)
{
    constexpr int kReps = 256;
    const auto series = [](const char *name, int qubits,
                           const auto &fast, const auto &ref) {
        const auto [fast_ns, ref_ns] = timePairNs(
            [&] {
                for (int r = 0; r < kReps; ++r)
                    fast();
            },
            [&] {
                for (int r = 0; r < kReps; ++r)
                    ref();
            });
        record(name, qubits, fast_ns / kReps, ref_ns / kReps, 0.0, true);
    };
    Statevector sv = randomState(n, 17);
    const int a = 1;
    const int b = n / 2;
    double theta = 0.3;
    const auto ry = [&] {
        const double c = std::cos(theta / 2.0);
        const double s = std::sin(theta / 2.0);
        theta += 1e-4;
        return Gate1q{Complex(c, 0), Complex(-s, 0), Complex(s, 0),
                      Complex(c, 0)};
    };
    series("ry", n, [&] { sv.applyRy(a, theta); theta += 1e-4; },
           [&] { refApplyGate1(sv, a, ry()); });
    series("rzz", n, [&] { sv.applyRzz(a, b, theta); theta += 1e-4; },
           [&] { refApplyRzz(sv, a, b, theta); theta += 1e-4; });
    series("cx", n, [&] { sv.applyCx(a, b); },
           [&] { refApplyCx(sv, a, b); });

    // A whole HEA preparation against the unfused circuit's gates run
    // through the reference kernels from the same basis state.
    const Ansatz ansatz = makeHardwareEfficientAnsatz(n, 2, 0);
    Rng rng(5);
    std::vector<double> params(ansatz.numParams());
    for (double &t : params)
        t = rng.uniform(-1, 1);
    Statevector prepared(n);
    series("hea_prepare", n, [&] { ansatz.prepareInto(prepared, params); },
           [&] { refPrepare(ansatz, params, prepared); });
}

/**
 * One exact ground-state solve (the fidelity metric's reference), a
 * TFIM through lanczosGroundState against the pre-rewrite solver
 * (refLanczosGroundState), both from the same seed: the same draws,
 * Krylov dimension and bits. A 6-qubit solve is mostly Jacobi on the
 * 64x64 tridiagonal; at 12 qubits the reorthogonalisation dominates.
 */
void
benchLanczosGround(int n)
{
    const PauliSum h = transverseFieldIsing(n, 1.0, 0.9);
    const std::size_t dim = std::size_t{1} << n;
    const MatVec matvec = [&h](const CVector &x, CVector &y) {
        h.applyTo(x, y);
    };
    const auto [fast_ns, ref_ns] = timePairNs(
        [&] {
            Rng rng(3);
            lanczosGroundState(dim, matvec, rng);
        },
        [&] {
            Rng rng(3);
            refLanczosGroundState(dim, matvec, rng);
        });
    record("lanczos_ground", n, fast_ns, ref_ns, 0.0, true);
}

/** jacobiEigen on a random m x m tridiagonal, Lanczos' Rayleigh-matrix
 * shape, against refJacobiEigen. The `qubits` field carries m. */
void
benchJacobiTridiag(int m)
{
    Rng rng(static_cast<std::uint64_t>(m));
    Matrix t(m, m, 0.0);
    for (int i = 0; i < m; ++i) {
        t(i, i) = rng.uniform(-1.0, 1.0);
        if (i + 1 < m)
            t(i, i + 1) = t(i + 1, i) = rng.uniform(-1.0, 1.0);
    }
    const auto [fast_ns, ref_ns] = timePairNs([&] { jacobiEigen(t); },
                                              [&] { refJacobiEigen(t); });
    record("jacobi_tridiag", m, fast_ns, ref_ns, 0.0, true);
}

/** Bytes the batched evaluator reads: the whole state once per X-mask
 * group. */
double
expectationBytes(int n, const std::vector<PauliString> &strings)
{
    std::vector<std::uint64_t> masks;
    for (const PauliString &p : strings)
        if (!p.isIdentity())
            masks.push_back(p.xMask());
    std::sort(masks.begin(), masks.end());
    const auto groups = static_cast<double>(
        std::unique(masks.begin(), masks.end()) - masks.begin());
    return groups * stateBytes(n) / 2;
}

void
benchBatchedExpectations(int n)
{
    const Statevector sv = randomState(n, 23);
    const auto strings = randomStrings(n, 40, 5, 31);
    recordKernel("batched_expectations", n,
                 timeNs([&] {
                     auto v = perStringExpectations(sv, strings);
                     (void)v;
                 }),
                 timeNs([&] {
                     auto v = refPerStringExpectations(sv, strings);
                     (void)v;
                 }),
                 expectationBytes(n, strings));
}

/**
 * The planned expectation pass against planning on every call: one
 * TFIM Hamiltonian's strings, evaluated through a prebuilt
 * ExpectationPlan (fast) and through the one-off
 * perStringExpectations (ref), single lane. At the paper's sizes the
 * plan costs more than the pass it sets up, so the speedup column is
 * what keeping one plan per objective saves.
 */
void
benchExpectationPlan(int n)
{
    const int reps = n <= 8 ? 256 : 1;
    const Statevector sv = randomState(n, 29);
    std::vector<PauliString> strings;
    for (const auto &term : transverseFieldIsing(n, 1.0, 0.7).terms())
        strings.push_back(term.string);
    const ExpectationPlan plan(strings, n);
    ThreadPool::global().resize(1);
    const auto [fast_ns, ref_ns] = timePairNs(
        [&] {
            for (int r = 0; r < reps; ++r) {
                auto v = plan.evaluate(sv);
                (void)v;
            }
        },
        [&] {
            for (int r = 0; r < reps; ++r) {
                auto v = perStringExpectations(sv, strings);
                (void)v;
            }
        });
    ThreadPool::global().resize(0);
    record("expectation_plan", n, fast_ns / reps, ref_ns / reps);
}

void
benchCircuitApply(int n)
{
    const Ansatz ansatz = makeHardwareEfficientAnsatz(n, 2, 0);
    Rng rng(5);
    std::vector<double> theta(ansatz.numParams());
    for (auto &t : theta)
        t = rng.uniform(-1, 1);
    Statevector sv(n);
    // Every compiled op streams the state in and out once.
    record("hea_prepare", n,
           timeNs([&] { ansatz.prepareInto(sv, theta); }), 0.0,
           static_cast<double>(ansatz.compiled()->numOps())
               * stateBytes(n));
}

void
benchThreadedExpectations(int n)
{
    // Same workload as batched_expectations, but comparing the full
    // pool against a single lane (ref): the speedup column is the
    // thread-parallel scaling of perStringExpectations.
    const Statevector sv = randomState(n, 23);
    const auto strings = randomStrings(n, 40, 5, 31);
    ThreadPool::global().resize(0); // machine default
    const double fast = timeNs([&] {
        auto v = perStringExpectations(sv, strings);
        (void)v;
    });
    ThreadPool::global().resize(1);
    const double ref = timeNs([&] {
        auto v = perStringExpectations(sv, strings);
        (void)v;
    });
    ThreadPool::global().resize(0);
    record("threaded_expectations", n, fast, ref,
           expectationBytes(n, strings));
}

void
benchBatchedEvaluation()
{
    // Batched multi-theta evaluation: one evaluateBatch call vs the
    // same number of sequential evaluate() calls (identical probe RNG
    // streams), on a 14-qubit 6-task TFIM cluster objective. This is
    // the per-iterate unit of work SPSA/Nelder-Mead submit per step.
    const int n = 14;
    const auto fam = tfimFamily(n, 0.5, 1.5, 6);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(n, 2, 0);
    ClusterObjective obj(fam, ansatz, EngineConfig{});

    Rng theta_rng(3);
    std::vector<std::vector<double>> thetas(8);
    for (auto &theta : thetas) {
        theta.resize(ansatz.numParams());
        for (auto &t : theta)
            t = theta_rng.uniform(-2, 2);
    }

    ThreadPool::global().resize(0);
    for (const std::size_t batch : {1u, 2u, 4u, 8u}) {
        const std::vector<std::vector<double>> probes(
            thetas.begin(), thetas.begin() + batch);
        Rng rng_fast(9);
        const double fast = timeNs([&] {
            auto evs = obj.evaluateBatch(probes, rng_fast);
            (void)evs;
        });
        Rng rng_ref(9);
        const double ref = timeNs([&] {
            const std::uint64_t base = rng_ref.nextU64();
            for (std::size_t i = 0; i < probes.size(); ++i) {
                Rng probe = ClusterObjective::probeRng(base, i);
                auto ev = obj.evaluate(probes[i], probe);
                (void)ev;
            }
        });
        record("evaluate_batch_" + std::to_string(batch), n, fast,
               ref);
    }
}

void
benchPaulprop(int n)
{
    // One multi-observable propagation (TFIM family, 2-layer HEA,
    // weight cap 6). No reference: the ns trajectory tracks
    // propagation cost across commits.
    const auto fam = tfimFamily(n, 0.7, 1.3, 4);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(n, 2, 0);
    Rng rng(13);
    std::vector<double> theta(ansatz.numParams());
    for (auto &t : theta)
        t = rng.uniform(-1.5, 1.5);

    PauliPropConfig cfg;
    cfg.maxWeight = 6;
    const PauliPropagator prop(ansatz.compiled(), cfg);
    record("paulprop", n, timeNs([&] {
               auto v = prop.expectations(theta, fam, 0);
               (void)v;
           }),
           0.0);
}

void
benchClusterObjective()
{
    // One full noisy evaluation of a 10-task LiH cluster objective.
    const auto spec = syntheticLiH();
    const auto fam = syntheticFamily(spec, familyBonds(spec, 10));
    const Ansatz ansatz =
        makeHardwareEfficientAnsatz(12, 2, halfFillingBits(12));
    ClusterObjective obj(fam, ansatz, EngineConfig{});
    Rng rng(2);
    std::vector<double> theta(ansatz.numParams(), 0.1);
    record("cluster_objective_eval", 12, timeNs([&] {
               auto ev = obj.evaluate(theta, rng);
               (void)ev;
           }),
           0.0);
}

void
benchSchedulerThroughput()
{
    // Scheduler overhead series: a fixed 16-job sweep of tiny
    // scenarios (6-qubit TFIM, 1-layer HEA, 6 SPSA iterations,
    // in-memory — no store/checkpoint I/O) run at 1/2/4/8 pool lanes.
    // The ref column is the 1-lane time, so "speedup" is the
    // scheduler's parallel scaling (~1.0x on a single-core
    // container); the jobs/sec trajectory tracks per-job dispatch
    // overhead across PRs.
    JsonValue request = JsonValue::object();
    request.set("name", JsonValue("bench"));
    request.set("problem", JsonValue("tfim"));
    request.set("size", JsonValue(std::int64_t{6}));
    request.set("ansatz", JsonValue("hea"));
    request.set("layers", JsonValue(std::int64_t{1}));
    request.set("maxIterations", JsonValue(std::int64_t{6}));
    request.set("checkpointInterval", JsonValue(std::int64_t{0}));
    JsonValue fields = JsonValue::array();
    for (int j = 0; j < 16; ++j)
        fields.push_back(JsonValue(0.5 + 0.1 * j));
    JsonValue sweep = JsonValue::object();
    sweep.set("field", std::move(fields));
    request.set("sweep", std::move(sweep));
    const std::vector<ScenarioSpec> specs = expandScenarios(request);

    double ref = 0.0;
    for (const int lanes : {1, 2, 4, 8}) {
        ThreadPool::global().resize(static_cast<std::size_t>(lanes));
        const double ns = timeNs([&] {
            const SweepResult sweep_result =
                JobScheduler().run(specs);
            (void)sweep_result;
        });
        if (lanes == 1)
            ref = ns;
        record("scheduler_throughput_" + std::to_string(lanes), 6, ns,
               ref);
    }

    // The same sweep drained end to end by one in-process WorkerDaemon
    // on one lane — claims, shard appends, telemetry beats and the
    // final compaction on the clock. dist_e2e_ns_job_1 is ns per job,
    // with the 1-lane scheduler's ns per job as ref (so the speedup
    // column is the fleet's per-job overhead as a ratio);
    // dist_fsyncs_job is durable fsyncs per drained job from the io.*
    // counters (a count, not ns).
    ThreadPool::global().resize(1);
    const std::filesystem::path root =
        std::filesystem::temp_directory_path()
        / ("treevqa_bench_e2e_" + localWorkerId());
    std::filesystem::remove_all(root);
    const Counter &fsyncs =
        MetricsRegistry::instance().counter("io.durable_fsyncs");
    int drains = 0;
    std::uint64_t drain_fsyncs = 0;
    const double drain_ns = timeNs([&] {
        const std::filesystem::path dir = root / std::to_string(drains++);
        std::filesystem::create_directories(dir);
        WorkerOptions options;
        options.sweepDir = dir.string();
        options.workerId = "bench";
        const std::uint64_t before = fsyncs.total();
        WorkerDaemon(options).run(specs);
        drain_fsyncs += fsyncs.total() - before;
    });
    std::filesystem::remove_all(root);
    const double jobs = static_cast<double>(specs.size());
    record("dist_e2e_ns_job_1", 6, drain_ns / jobs, ref / jobs);
    record("dist_fsyncs_job", 0,
           static_cast<double>(drain_fsyncs) / (drains * jobs), 0.0);
    ThreadPool::global().resize(0); // back to the machine default
}

void
benchClaimPath()
{
    // PR 8 claim-path scaling series: one worker drains N synthetic
    // no-op jobs (options.jobRunner returns a fixed completed record,
    // so the claim/scan/record protocol and its beats are the *whole*
    // cost) and the rows report counters, not timings — store bytes
    // read per drained job, WorkClaim::tryAcquire round-trips per
    // drained job, and scan rounds per drain. The full-rescan
    // baseline (incrementalScan = false: the merged store re-read
    // every round) is O(N) bytes per job and is measured at 500/2000
    // jobs; the incremental tail reader is measured at 2000/10000 and
    // must stay asymptotically flat. The ref column of
    // dist_scan_bytes_job_incr_2000 is the equal-N full-rescan figure,
    // so its speedup column is the measured I/O reduction.
    const std::filesystem::path root =
        std::filesystem::temp_directory_path()
        / ("treevqa_bench_claim_" + localWorkerId());
    int run_counter = 0;

    const auto specs_for = [](int n) {
        std::vector<ScenarioSpec> specs;
        for (int j = 0; j < n; ++j) {
            ScenarioSpec spec;
            spec.name = "claim" + std::to_string(j);
            spec.problem = "tfim";
            spec.size = 4;
            spec.field = 0.25 + 1e-4 * j;
            spec.ansatz = "hea";
            spec.layers = 1;
            spec.maxIterations = 1;
            spec.checkpointInterval = 0;
            specs.push_back(spec);
        }
        return specs;
    };

    struct Config
    {
        const char *tag;
        int jobs;
        bool incremental;
    };
    const Config configs[] = {
        {"full_500", 500, false},
        {"full_2000", 2000, false},
        {"incr_2000", 2000, true},
        {"incr_10000", 10000, true},
    };
    double full2000_bytes_job = 0.0;
    for (const Config &config : configs) {
        const std::vector<ScenarioSpec> specs =
            specs_for(config.jobs);
        const std::filesystem::path dir =
            root / std::to_string(run_counter++);
        std::filesystem::create_directories(dir);

        WorkerOptions options;
        options.sweepDir = dir.string();
        options.workerId = "bench";
        options.leaseMs = 60000;
        options.pollMs = 1;
        options.claimBatch = 8;
        options.incrementalScan = config.incremental;
        options.jobRunner = [](const ScenarioSpec &spec,
                               const ScenarioRunOptions &) {
            JobResult r;
            r.spec = spec;
            r.fingerprint = scenarioFingerprint(spec);
            r.completed = true;
            r.iterations = 1;
            r.trajectory = {1.0};
            r.bestLoss = 1.0;
            r.finalEnergy = -spec.field;
            return r;
        };
        WorkerDaemon daemon(options);
        const WorkerReport report = daemon.run(specs);
        if (report.completed != static_cast<std::size_t>(config.jobs))
            std::fprintf(stderr,
                         "claim-path bench %s: drained %zu of %d\n",
                         config.tag, report.completed, config.jobs);

        const double jobs = static_cast<double>(config.jobs);
        const double bytes_job =
            static_cast<double>(report.storeBytesRead) / jobs;
        if (std::string(config.tag) == "full_2000")
            full2000_bytes_job = bytes_job;
        const bool paired = std::string(config.tag) == "incr_2000";
        record(std::string("dist_scan_bytes_job_") + config.tag, 0,
               bytes_job, paired ? full2000_bytes_job : 0.0);
        record(std::string("dist_claim_ops_job_") + config.tag, 0,
               static_cast<double>(report.claimAttempts) / jobs, 0.0);
        record(std::string("dist_scans_drain_") + config.tag, 0,
               static_cast<double>(report.scanRounds), 0.0);
        std::filesystem::remove_all(dir);
    }
    std::filesystem::remove_all(root);
}

void
benchFaultPointsDisarmed()
{
    // Guard series for the fault-injection layer: a disarmed
    // FAULT_POINT must stay one relaxed atomic load, so the hardened
    // claim/append hot paths pay nothing unless a chaos plan is armed.
    // fast = registry fully disarmed, ref = registry armed on an
    // *unrelated* site (every site then takes the evaluate() slow
    // path and misses), so the speedup column reads "what the
    // disarmed fast path saves" and the disarmed ns trajectory guards
    // against work creeping back onto it.
    constexpr int kCalls = 4096;
    const auto fault_loop = [] {
        for (int i = 0; i < kCalls; ++i)
            if (const FaultHit hit = FAULT_POINT("bench.disarmed"))
                std::abort(); // no plan ever targets this site
    };
    const std::string unrelated_plan = "{\"seed\": 7, \"faults\": "
        "[{\"site\": \"bench.unrelated\", \"action\": \"fail-errno\", "
        "\"errno\": \"EIO\", \"hit\": 1}]}";

    FaultInjection::instance().disarm();
    const double site_disarmed = timeNs(fault_loop) / kCalls;
    FaultInjection::instance().arm(unrelated_plan);
    const double site_armed = timeNs(fault_loop) / kCalls;
    FaultInjection::instance().disarm();
    record("fault_points_disarmed", 0, site_disarmed, site_armed);

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path()
        / ("treevqa_bench_fp_" + localWorkerId());
    std::filesystem::create_directories(dir);

    // The two hardened hot paths a worker hammers: the claim
    // acquire/renew/release cycle (4 sites) and a durable store
    // append (3 sites). Same fast/ref convention as above.
    const auto claim_cycle = [&] {
        auto claim = WorkClaim::tryAcquire(dir.string(), "benchfp",
                                           "bench-worker", 60000);
        if (!claim) {
            std::fprintf(stderr, "bench claim unexpectedly contended\n");
            std::abort();
        }
        claim->renew();
        claim->release();
    };
    const double claim_disarmed = timeNs(claim_cycle);
    FaultInjection::instance().arm(unrelated_plan);
    const double claim_armed = timeNs(claim_cycle);
    FaultInjection::instance().disarm();
    record("fault_points_claim_cycle", 0, claim_disarmed, claim_armed);

    JobResult sample;
    sample.spec.name = "benchfp";
    sample.spec.problem = "tfim";
    sample.spec.size = 6;
    sample.spec.ansatz = "hea";
    sample.spec.layers = 1;
    sample.spec.maxIterations = 4;
    sample.fingerprint = scenarioFingerprint(sample.spec);
    sample.completed = true;
    sample.iterations = 4;
    sample.trajectory = {1.0, 0.5, 0.25, 0.125};
    sample.bestLoss = 0.125;
    sample.finalEnergy = -1.0;
    ResultStore store((dir / "bench.jsonl").string());
    const auto append_once = [&] { store.append(sample); };
    const double append_disarmed = timeNs(append_once);
    FaultInjection::instance().arm(unrelated_plan);
    const double append_armed = timeNs(append_once);
    FaultInjection::instance().disarm();
    record("fault_points_store_append", 0, append_disarmed,
           append_armed);

    std::filesystem::remove_all(dir);
}

void
benchFleetSupervision()
{
    // PR 7 fleet-supervision series. heartbeat_progress_stamp: the
    // worker heartbeat now stamps monotonic progress into the claim on
    // every renew (the watchdog's liveness signal). fast = renew with
    // a progress stamp, ref = the plain renew it replaced, so the
    // speedup column reads ~1.0x when the stamp is free (both are one
    // atomic tmp+rename rewrite) and drifts below 1.0 if stamping ever
    // grows extra I/O.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path()
        / ("treevqa_bench_sup_" + localWorkerId());
    std::filesystem::create_directories(dir);

    auto claim = WorkClaim::tryAcquire(dir.string(), "benchhb",
                                       "bench-worker", 60000);
    if (!claim) {
        std::fprintf(stderr, "bench claim unexpectedly contended\n");
        std::abort();
    }
    std::int64_t progress = 0;
    const double stamped_ns =
        timeNs([&] { claim->renew(++progress); });
    const double plain_ns = timeNs([&] { claim->renew(); });
    claim->release();
    record("heartbeat_progress_stamp", 0, stamped_ns, plain_ns);

    // supervisor_overhead: the fixed cost of one Supervisor::run()
    // over an already-drained one-job sweep with a trivial worker
    // command — spec load, drained check, beats and the
    // shutdown cascade, with no real work to hide behind. No ref
    // counterpart; the ns trajectory guards the supervise loop's
    // per-sweep floor across PRs.
    ScenarioSpec spec;
    spec.name = "benchsup";
    spec.problem = "tfim";
    spec.size = 4;
    spec.ansatz = "hea";
    spec.layers = 1;
    spec.maxIterations = 4;
    JsonValue sweep = JsonValue::array();
    sweep.push_back(scenarioToJson(spec));
    writeTextFileAtomic(sweepSpecPath(dir.string()),
                        sweep.dump(2) + "\n");
    JobResult done;
    done.spec = spec;
    done.fingerprint = scenarioFingerprint(spec);
    done.completed = true;
    done.iterations = 4;
    done.trajectory = {1.0, 0.5, 0.25, 0.125};
    done.bestLoss = 0.125;
    done.finalEnergy = -1.0;
    ResultStore(sweepStorePath(dir.string())).append(done);

    SupervisorOptions options;
    options.sweepDir = dir.string();
    options.workerCommand = {"/bin/true"};
    options.workers = 1;
    options.idPrefix = "bench";
    options.pollMs = 1;
    options.gracePeriodMs = 500;
    options.redirectChildLogs = false;
    options.mergeOnDrain = false;
    const double supervise_ns =
        timeNs([&] { Supervisor(options).run(); });
    record("supervisor_overhead", 0, supervise_ns, 0.0);

    std::filesystem::remove_all(dir);
}

void
benchObservability()
{
    // Observability series, same convention as the fault_points_*
    // guards: a disarmed TRACE_SPAN must cost one relaxed atomic load
    // (trace_overhead_off is the bare loop, so the disarmed row's delta
    // over it is the span's whole disarmed price), the armed row prices
    // the two clock reads + one journal emit, and metrics_counter_inc
    // guards the sharded counter's uncontended fast path. ref of the
    // disarmed and armed rows is the bare loop, so their speedup
    // columns read "fraction of the loop the instrumentation costs"
    // (~1.0x disarmed = within noise of no instrumentation at all).
    constexpr int kCalls = 4096;
    volatile std::uint64_t sink = 0;
    const auto bare_loop = [&] {
        for (int i = 0; i < kCalls; ++i)
            sink = sink + 1;
    };
    const auto span_loop = [&](int calls) {
        for (int i = 0; i < calls; ++i) {
            TRACE_SPAN("bench.span");
            sink = sink + 1;
        }
    };

    TraceSpan::setArmed(false);
    const double off = timeNs(bare_loop) / kCalls;
    const double disarmed = timeNs([&] { span_loop(kCalls); }) / kCalls;
    // Armed spans go into an open journal (an unopened one returns
    // early), kSpans per sample as in event_append, so the minimum
    // sample never includes an auto-flush's disk write.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path()
        / ("treevqa_bench_span_" + localWorkerId());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    EventLog::instance().open(dir.string(), "bench");
    constexpr int kSpans = 512;
    static_assert(kSpans < EventLog::kAutoFlushLines,
                  "span series must not hit the auto-flush");
    TraceSpan::setArmed(true);
    const double armed = timeNs([&] { span_loop(kSpans); }) / kSpans;
    TraceSpan::setArmed(false);
    EventLog::instance().close();
    std::filesystem::remove_all(dir);
    record("trace_overhead_off", 0, off, 0.0);
    record("trace_overhead_disarmed", 0, disarmed, off);
    record("trace_overhead_armed", 0, armed, off);

    Counter &counter =
        MetricsRegistry::instance().counter("bench.counter");
    const double inc = timeNs([&] {
                           for (int i = 0; i < kCalls; ++i)
                               counter.inc();
                       })
        / kCalls;
    record("metrics_counter_inc", 0, inc, 0.0);

    Histogram &hist =
        MetricsRegistry::instance().histogram("bench.hist_ns");
    const double observe = timeNs([&] {
                               for (int i = 0; i < kCalls; ++i)
                                   hist.observe(
                                       static_cast<std::uint64_t>(i));
                           })
        / kCalls;
    record("metrics_histogram_observe", 0, observe, 0.0);
}

void
benchEventLog()
{
    // PR 10 causal-journal series. hlc_tick guards the clock stamp
    // every claim/heartbeat/event takes; event_append guards emit()
    // — stamp + serialize + CRC + buffer, no I/O — which runs inside
    // the worker's claim and record loops and must stay well under a
    // microsecond (the durable append happens in the explicit,
    // untimed flush). kEmits stays below kAutoFlushLines so the
    // series never accidentally prices a disk write.
    HlcClock clock("bench-p0");
    constexpr int kCalls = 4096;
    volatile std::int64_t sink = 0;
    const double tick_ns = timeNs([&] {
                               for (int i = 0; i < kCalls; ++i)
                                   sink = sink
                                       + clock.tick(1000000 + i)
                                             .counter;
                           })
        / kCalls;
    record("hlc_tick", 0, tick_ns, 0.0);

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path()
        / ("treevqa_bench_evl_" + localWorkerId());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    EventLog log;
    log.open(dir.string(), "bench");
    constexpr int kEmits = 512;
    static_assert(kEmits < EventLog::kAutoFlushLines,
                  "emit series must not hit the auto-flush");
    const double emit_ns =
        timeNs([&] {
            for (int i = 0; i < kEmits; ++i)
                log.emit(event_type::kLeaseRenewed, "benchfp");
        })
        / kEmits;
    log.flush();
    log.close();
    record("event_append", 0, emit_ns, 0.0);
    std::filesystem::remove_all(dir);
}

/** JSON string escaping for the provenance stamps (env-supplied). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

/** memcpy GB/s at n qubits measured in this run (0 if none). */
double
memcpyGbps(int n)
{
    for (const BenchResult &r : g_results)
        if (r.name == "memcpy" && r.qubits == n)
            return r.gbps();
    return 0.0;
}

void
writeJson(const std::string &path)
{
    // Provenance stamps come from the harness (CI passes the checkout
    // SHA and the run date); a bare local run stamps "unknown" so the
    // document stays schema-complete either way.
    const char *sha = std::getenv("TREEVQA_BENCH_GIT_SHA");
    const char *date = std::getenv("TREEVQA_BENCH_DATE");
    std::ofstream out(path);
    out << "{\n  \"bench\": \"micro_kernels\",\n"
        << "  \"schemaVersion\": 3,\n"
        << "  \"gitSha\": \""
        << jsonEscape(sha && *sha ? sha : "unknown") << "\",\n"
        << "  \"date\": \""
        << jsonEscape(date && *date ? date : "unknown") << "\",\n"
        << "  \"unit\": \"ns_per_op\","
        << "\n  \"results\": [\n";
    for (std::size_t i = 0; i < g_results.size(); ++i) {
        const BenchResult &r = g_results[i];
        char line[256];
        std::snprintf(line, sizeof(line),
                      "    {\"name\": \"%s\", \"qubits\": %d, "
                      "\"ns_per_op\": %.1f",
                      r.name.c_str(), r.qubits, r.fastNs);
        out << line;
        if (r.refNs > 0.0) {
            // JSON has no infinity: a zero-cost row (a counter that
            // reads 0) reports a null speedup.
            char speedup[32] = "null";
            if (std::isfinite(r.speedup()))
                std::snprintf(speedup, sizeof(speedup), "%.3f",
                              r.speedup());
            std::snprintf(line, sizeof(line),
                          ", \"ref_ns_per_op\": %.1f, "
                          "\"speedup\": %s, \"naiveRef\": %s",
                          r.refNs, speedup,
                          r.naiveRef ? "true" : "false");
            out << line;
        }
        if (r.bytes > 0.0) {
            const double roof = memcpyGbps(r.qubits);
            std::snprintf(line, sizeof(line),
                          ", \"bytes\": %.0f, \"gbps\": %.2f, "
                          "\"roofline_pct\": %.1f",
                          r.bytes, r.gbps(),
                          roof > 0.0 ? 100.0 * r.gbps() / roof : 0.0);
            out << line;
        }
        out << "}" << (i + 1 < g_results.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
}

} // namespace

int
main()
{
    std::printf("micro-kernel benchmarks (min-of-reps, ns/op)\n");
    for (int n : {4, 6, 8}) {
        std::printf("--- %d qubits (paper scale) ---\n", n);
        benchPaperScaleKernels(n);
    }
    std::printf("--- exact ground states (1 lane) ---\n");
    for (int n : {6, 10, 12})
        benchLanczosGround(n);
    for (int m : {64, 160})
        benchJacobiTridiag(m);
    std::printf("--- planned expectations (TFIM, 1 lane) ---\n");
    for (int n : {2, 6, 16})
        benchExpectationPlan(n);
    for (int n : {10, 12, 14, 16, 18}) {
        std::printf("--- %d qubits ---\n", n);
        benchGateKernels(n);
        benchMemcpy(n); // after the kernels: the OpenMP team is warm
        benchBatchedExpectations(n);
        benchThreadedExpectations(n);
        benchCircuitApply(n);
    }
    benchClusterObjective();
    benchBatchedEvaluation();
    benchPaulprop(10);
    benchSchedulerThroughput();
    benchClaimPath();
    benchFaultPointsDisarmed();
    benchFleetSupervision();
    benchObservability();
    benchEventLog();
    writeJson("BENCH_micro_kernels.json");
    std::printf("wrote BENCH_micro_kernels.json (%zu entries)\n",
                g_results.size());
    return 0;
}
