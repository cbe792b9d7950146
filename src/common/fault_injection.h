/**
 * @file
 * Deterministic, process-wide fault injection for the durability
 * layers (file_util, work_claim, worker_daemon, result_store,
 * scenario_runner).
 *
 * Durability-critical code paths declare **named fault sites**:
 *
 *     if (const FaultHit hit = FAULT_POINT("claim.rename")) { ... }
 *
 * A disarmed site is one relaxed atomic load — effectively free on the
 * claim/append hot paths (bench_micro_kernels' `fault_points_disarmed`
 * series tracks this). Sites arm via the `TREEVQA_FAULT_PLAN`
 * environment variable (inline JSON, or a path to a JSON file when the
 * value does not start with '{'), or programmatically via
 * FaultInjection::arm() in tests:
 *
 *     {
 *       "seed": 1234,
 *       "faults": [
 *         {"site": "file.write_atomic.rename", "action": "fail-errno",
 *          "errno": "EIO", "hit": 2},
 *         {"site": "store.append", "action": "torn-write",
 *          "keepFraction": 0.4, "hit": 1},
 *         {"site": "checkpoint.write", "action": "crash", "hit": 3},
 *         {"site": "claim.renew", "action": "delay-ms", "ms": 50,
 *          "probability": 0.25, "times": 0}
 *       ]
 *     }
 *
 * Triggers are pure functions of the plan and the per-site hit
 * sequence, so every discovered failure is a one-line repro:
 *
 *  - `"hit": N` fires from the Nth evaluation of the site onward
 *    (1-based); with the default `times` of 1 that is exactly the
 *    Nth evaluation.
 *  - `"probability": p` draws a Bernoulli per evaluation from a
 *    dedicated Rng stream seeded from (plan seed, entry index) —
 *    replaying the same plan over the same execution reproduces the
 *    identical fault schedule.
 *  - `"times": M` caps how often the entry fires (default 1; 0 means
 *    unlimited).
 *  - `"tokens": "<dir>"` makes `times` one budget shared by every
 *    process that arms the entry: before each fire the entry creates
 *    a token file `<dir>/fault-<entry>-<k>` with O_EXCL (k < times),
 *    and with no token left it does not fire. A supervised fleet that
 *    restarts its crashed children re-arms the same plan in every
 *    child, yet a `crash` entry with `"times": 2` kills exactly two
 *    of them. The directory is created at arm(); `tokens` needs a
 *    nonzero `times`.
 *
 * Actions, interpreted by the call site that owns the fault point:
 *
 *  - **fail-errno** — the guarded operation behaves as if the
 *    underlying syscall failed with the given errno (name like "EIO"
 *    or a number). Call sites route this through their normal error
 *    handling (EINTR/backoff retries, throw, lease-lost, ...).
 *  - **torn-write** — at write sites, only a prefix of the content
 *    (`keepFraction`, default 0.5) reaches the file and the writer
 *    carries on believing the write succeeded — the reader-visible
 *    outcome of a torn write, exercising CRC quarantine and re-run
 *    convergence.
 *  - **delay-ms** — sleep `ms` at the site (performed inside
 *    evaluate(), then reported), for lease-expiry and race windows.
 *  - **crash** — raise SIGKILL at the site: a genuinely uncleaned
 *    death at a deterministic instant. Never returns. This is the
 *    only way any program in the repository crashes on purpose: the
 *    kill-and-resume drills (CI, treevqa_chaos) all arm a plan.
 *
 * Sites that only mark an instant, where `crash` and `delay-ms` are
 * the meaningful actions:
 *
 *  - **checkpoint.written** — after a job's durable interval
 *    checkpoint and its journal flush (scenario_runner.cpp). A crash
 *    here leaves the checkpoint on disk for the next claimant, unlike
 *    `checkpoint.write`, which fires before the write.
 *
 * The registry counts evaluations and fires per site (counters()), so
 * the chaos harness can assert a drill's faults actually happened.
 */

#ifndef TREEVQA_COMMON_FAULT_INJECTION_H
#define TREEVQA_COMMON_FAULT_INJECTION_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace treevqa {

enum class FaultAction
{
    None,
    FailErrno,
    TornWrite,
    DelayMs,
    Crash
};

/** What a fault point evaluation decided (None almost always). */
struct FaultHit
{
    FaultAction action = FaultAction::None;
    /** fail-errno: the errno the guarded operation fails with. */
    int err = 0;
    /** delay-ms: how long evaluate() slept. */
    std::int64_t delayMs = 0;
    /** torn-write: fraction of the content that reaches the file. */
    double keepFraction = 0.5;

    explicit operator bool() const
    {
        return action != FaultAction::None;
    }

    /** torn-write helper: the prefix length out of `size` bytes. */
    std::size_t tornPrefix(std::size_t size) const;
};

/** One evaluation/fire tally of a site (chaos assertions, tests). */
struct FaultSiteCounters
{
    std::uint64_t evaluations = 0;
    std::uint64_t fires = 0;
};

/** Process-wide registry of armed faults. See file header. */
class FaultInjection
{
  public:
    static FaultInjection &instance();

    /**
     * Arm from a JSON plan document (see file header). Resets all hit
     * counters. Throws std::runtime_error / std::invalid_argument on a
     * malformed plan — a chaos drill with a broken plan must fail
     * loudly, not silently run fault-free.
     */
    void arm(const std::string &planJson);

    /** Disarm all sites and clear counters. */
    void disarm();

    /** Cheap armed check (the disarmed fast path of FAULT_POINT). */
    static bool armed()
    {
        return armedFlag().load(std::memory_order_relaxed);
    }

    /**
     * Evaluate a site hit: advance its counter, fire any matching plan
     * entry. Delay actions sleep here; crash actions never return.
     * Only called when armed (FAULT_POINT guards the fast path).
     */
    FaultHit evaluate(const char *site);

    /** Per-site evaluation/fire tallies since the last arm()/disarm(). */
    std::map<std::string, FaultSiteCounters> counters() const;

    /** Total fires across all sites since the last arm()/disarm(). */
    std::uint64_t totalFires() const;

    static std::atomic<bool> &armedFlag();

  private:
    FaultInjection() = default;

    struct Entry;

    mutable std::mutex mutex_;
    std::vector<Entry> entries_;
    std::map<std::string, FaultSiteCounters> counters_;
    std::uint64_t seed_ = 0;

    friend struct FaultInjectionEnvBootstrap;
};

/** Translate an errno name ("EIO", "EINTR", ...) or decimal number to
 * its value; throws std::invalid_argument on an unknown name. */
int faultErrnoFromName(const std::string &name);

/** The fault-site macro. Disarmed: one relaxed atomic load, no call. */
#define FAULT_POINT(site)                                              \
    (::treevqa::FaultInjection::armed()                                \
         ? ::treevqa::FaultInjection::instance().evaluate(site)        \
         : ::treevqa::FaultHit{})

} // namespace treevqa

#endif // TREEVQA_COMMON_FAULT_INJECTION_H
