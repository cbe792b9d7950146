/**
 * @file
 * WorkerDaemon: the scan→claim→run→record loop that lets N independent
 * processes (possibly on different hosts sharing a filesystem)
 * cooperatively drain one sweep directory.
 *
 * Each round the daemon refreshes the sweep's job list (SweepIndex:
 * parsed and fingerprinted once, re-expanded only when sweep.json
 * actually changes), brings its incremental merged-record view up to
 * date (StoreTailReader: per-file byte cursors, only appended lines
 * parsed; a read from offset 0 is the fallback after compaction or
 * any cursor invalidation), and walks the
 * still-unrecorded jobs in a worker-specific rotation (so a fleet
 * doesn't stampede the same claim file). The pending set is kept from
 * the view's deltas (PendingJobs): each round re-judges only the jobs
 * whose verdicts changed since the last, plus the batch just run, and
 * the O(N) walk over every job runs only for a new job-list
 * generation or a view rebuilt from offset 0. It claims up to `claimBatch`
 * jobs per pass (WorkClaim) and runs them back to back under one
 * heartbeat thread that renews every held lease round-robin — so the
 * per-job claim traffic is one acquire and one release amortized over
 * a batch, not one scan each. Each job drives the existing
 * checkpointed ScenarioRunner — a job interrupted by a crashed worker
 * resumes from that worker's last checkpoint — and the batch's
 * records are committed together to this worker's private JSONL shard
 * (`<dir>/workers/<id>.jsonl`; per-worker files make cross-process
 * append interleaving impossible). The shard only grows while the
 * sweep runs; nothing renames or deletes it before the drained
 * compaction. A worker never reads its own commits back: after each
 * batch's fsync it folds the committed records into its view from
 * memory (StoreTailReader::foldOwnAppend), which declines, leaving
 * the bytes to the next refresh, unless a stat proves the shard grew
 * by exactly those bytes.
 *
 * Drain proof: the incremental view is an optimization, never the
 * proof. When it says drained, the daemon first waits until no other
 * worker holds a live claim (a resolved job's live claim means its
 * owner is still committing: fsync, beat, release). Then one load of
 * every store from offset 0 must resolve every job, by the same
 * JobResolution fold, budget and local poison guard as the view; that
 * load is the compaction's own (compactSweepStore's DrainProof), so
 * the very record set it proved becomes the canonical store and
 * summary, and the shards are deleted (store_merge.h). If the load
 * leaves a job unresolved, nothing is written: the view is rebuilt
 * and the scan goes on. Where no compaction follows (daemon mode,
 * mergeOnDrain false, or a store a peer already compacted) the proof
 * is the same load, or the view itself when this scan built it from
 * offset 0, cached per job-list generation. So a one-worker drain of
 * N jobs decodes N store lines (`store.lines_decoded`).
 *
 * Commit protocol — group commit per claim batch, the rule
 * svc/group_commit.h states for every drain loop. A finished job's
 * record waits in memory (a store buffer), its lease still held and
 * renewed by the heartbeat. At the batch's end, and on every early
 * exit (graceful stop, a sealed job, a watchdog timeout), one commit
 * runs, in this order:
 *  1. ownership: each buffered slot's claim is confirmed — a read
 *     while more than 2/3 of the lease is left (no reaper can take it
 *     before the deadline), a renewal closer to it — and a slot whose
 *     lease was lost is dropped (its reaper records the bit-identical
 *     result);
 *  2. commitJobRecords on this worker's shard: one append with one
 *     fsync, checkpoint retirement, the job.completed events (the
 *     poison bookkeeping and job.poisoned events ride its failed-
 *     record hook), one journal flush;
 *  3. one beat;
 *  4. only then the claims are released (unlinked unread while more
 *     than 2/3 of the lease is left, by step 1's rule).
 * Releasing a claim is the fence that publishes its record to the
 * fleet (the store-buffer argument of "Reasoning About TSO Programs
 * Using Reduction and Abstraction"): no claim is released before its
 * record's fsync has returned. A failed (poisoned) record forces an
 * immediate commit of the buffer plus that record, so it is durable
 * before the next job starts and the fleet-wide poison budget never
 * under-counts. A SIGKILL before the fsync costs only the buffered
 * jobs: their claims and checkpoints are still on disk, so reapers
 * resume them from their newest checkpoints, and since jobs are pure
 * and JobResolution::fold keeps the later body, the summary bytes do
 * not change.
 *
 * A job that throws is retried within a per-job budget
 * (maxJobAttempts, exponential backoff); when the budget is spent the
 * job is quarantined as *poison* — a failed=true record is appended
 * so the sweep can drain around a defective spec instead of wedging
 * or killing the fleet. The budget is **fleet-wide**: failed records
 * persist the attempt count they account for, JobResolution
 * (svc/result_store.h) sums counts across workers' records, and every
 * worker treats a job as poison-resolved once the *cumulative*
 * attempts reach its own maxJobAttempts — so a defective spec costs
 * at most maxJobAttempts attempts across the whole fleet, not that
 * many per worker. A worker claiming a job with prior recorded failures only
 * spends the remaining budget.
 *
 * Liveness watchdog: the heartbeat thread stamps a batch-wide
 * monotonic progress tick (advanced whenever the running job's
 * optimizer iteration moves) into every lease renewal, so queued
 * claims of a live worker keep advancing and only a genuine wedge
 * freezes them; it also marks the claim of the job the loop is
 * running, and with jobTimeoutMs set it renews at least three times
 * per timeout. With jobTimeoutMs set, leases whose renewals keep
 * landing while progress stays frozen past the timeout are a *hung*
 * batch: the heartbeat releases the leases of the jobs the loop never
 * started at once (idle peers claim them right away), stops renewing
 * the rest (the wedged job's lease expires for a reaper), and the
 * attempt is reported as timed out. The fleet supervisor
 * (dist/supervisor.h) watches the same progress stamps from outside,
 * SIGKILLs the wedged process and charges the claim marked running.
 *
 * Each worker also *beats*: it writes its metrics dump with its
 * health status embedded (`<dir>/metrics/<id>-p<pid>.json`,
 * dist/health.h) and flushes its journal (armed trace spans ride it
 * as `trace.span` events) at every commit and timeout, on the heartbeat cadence, on idle polls, at drain and at
 * stop — pure observability, never read by the protocol, and written
 * best-effort (no fsync). The `running` and per-attempt transitions
 * only update the in-memory status, which the next beat publishes. So
 * a claim batch costs one durable fsync — its append — plus one beat
 * file, whatever its size.
 *
 * Determinism: jobs are pure functions of their specs, so any worker
 * count, any claim batch size and any kill schedule produce the same
 * final energies — bit-identical, timing excluded, to a
 * single-process JobScheduler run (tests/test_dist.cpp and the
 * `treevqa_chaos` drills, `ctest -L chaos` and `-L smoke`, enforce
 * this).
 */

#ifndef TREEVQA_DIST_WORKER_DAEMON_H
#define TREEVQA_DIST_WORKER_DAEMON_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dist/health.h"
#include "dist/store_tail.h"
#include "dist/work_claim.h"
#include "svc/group_commit.h"
#include "svc/scenario_runner.h"

namespace treevqa {

/** Worker configuration (CLI: tools/treevqa_worker.cpp). */
struct WorkerOptions
{
    /** The shared sweep directory (see svc/sweep_dir.h layout). */
    std::string sweepDir;
    /** Identity written into claims and the shard filename; must be a
     * filesystem-safe token, unique per worker process (default:
     * "<host>-<pid>"). */
    std::string workerId;
    /** Lease duration; a crashed worker's claim becomes reapable this
     * long after its last heartbeat. Must dominate host clock skew. */
    std::int64_t leaseMs = 30000;
    /** Stop after completing this many jobs (0 = unbounded). */
    int maxJobs = 0;
    /** True: exit once every job has a record (waiting out live
     * leases of other workers). False: keep polling for new work —
     * run() re-checks sweep.json each round (one stat when
     * unchanged), so appending scenarios to the request document
     * feeds a running fleet. */
    bool drainAndExit = true;
    /** Idle wait between scan rounds when nothing was claimable. */
    std::int64_t pollMs = 200;
    /** Compact the shards into the canonical store + summary.json
     * after draining (idempotent; concurrent drained workers may race
     * harmlessly). */
    bool mergeOnDrain = true;
    /** Per-job retry budget: a job that throws is retried (with
     * exponential backoff) up to this many total attempts — counted
     * across the whole fleet via attempt-carrying failed records —
     * then quarantined as a poison job: recorded with failed=true so
     * the drain can finish instead of wedging on a defective spec. */
    int maxJobAttempts = 3;
    /** Base backoff between attempts of a throwing job; attempt k
     * waits cappedBackoffMs(retryBackoffMs, k) (dist/backoff.h). */
    std::int64_t retryBackoffMs = 50;
    /**
     * Jobs leased per scan pass. A worker acquires up to this many
     * claims in one walk over the pending set, then runs them back to
     * back under a single heartbeat, so claim-file round-trips per
     * drained job stay O(1) instead of one scan pass each. The batch
     * is also the unit of commit: one append, one fsync and one beat
     * (see the file comment). 1 degenerates to claim, commit and beat
     * per job.
     */
    int claimBatch = kGroupCommitBatch;
    /**
     * Refresh the tail-reader record view incrementally (O(appended
     * bytes) per scan). False invalidates the view before every
     * refresh, re-reading every store from offset 0 each round: the
     * O(N)-rescan baseline that
     * WorkerDaemon.RescanBaselineReadsMoreThanIncrementalScan and the
     * dist_scan_bytes_job_* bench series measure the incremental scan
     * against. The drain proof is one load from offset 0 either way.
     */
    bool incrementalScan = true;
    /**
     * In-process hung-job watchdog (0 = disabled): when the job's
     * progress counter stays frozen this long while the heartbeat
     * thread is alive, the heartbeat releases the batch's
     * never-started jobs at once and *stops renewing* the rest, so
     * other workers can claim the queue now and reap the wedged job
     * after its lease — and the attempt is reported as timed out. Must comfortably exceed the
     * wall time of one optimizer iteration. The supervisor enforces
     * the same timeout from outside with a SIGKILL
     * (dist/supervisor.h).
     */
    std::int64_t jobTimeoutMs = 0;
    /**
     * Replace runScenario as the job body (benchmarks: synthetic
     * no-op jobs that measure the claim path itself, not the
     * simulator). The returned record is appended verbatim; it must
     * carry the given spec and fingerprint. Null = run the real
     * scenario runner.
     */
    std::function<JobResult(const ScenarioSpec &,
                            const ScenarioRunOptions &)>
        jobRunner;
};

/**
 * Deterministic per-worker idle-poll jitter: pollMs scaled into
 * [0.75, 1.25] by a stable hash of the worker id (never below 1 ms).
 * A fleet started in lockstep — exactly what the supervisor does —
 * would otherwise re-scan the sweep in synchronized bursts forever;
 * the per-identity skew spreads the filesystem load without any
 * nondeterminism. Exposed for tests.
 */
std::int64_t jitteredPollMs(std::int64_t pollMs,
                            const std::string &workerId);

/** What one run() accomplished. */
struct WorkerReport
{
    /** Jobs this worker ran to completion and recorded. */
    std::size_t completed = 0;
    /** Of those, jobs resumed from another (or a previous) worker's
     * checkpoint. */
    std::size_t resumed = 0;
    /** Stale leases taken over from crashed workers. */
    std::size_t reapedLeases = 0;
    /** Jobs whose lease was lost mid-run; their records were
     * discarded (the reaper produces bit-identical ones). */
    std::size_t lostClaims = 0;
    /** Job attempts that threw and were retried (or gave up). */
    std::size_t failedAttempts = 0;
    /** Poison jobs quarantined: every attempt in the (remaining
     * fleet-wide) budget threw, so a failed=true record carrying the
     * attempt count was appended. */
    std::size_t poisoned = 0;
    /** Jobs abandoned by the in-process hung-job watchdog: progress
     * stalled past jobTimeoutMs, the leases were dropped for a
     * reaper. */
    std::size_t timedOut = 0;
    /** Jobs sealed mid-run by a graceful stop (requestStop): the
     * checkpoint was written at the current iteration and the claims
     * released, so the next claimant resumes bit-identically. */
    std::size_t interrupted = 0;
    /** Every job in the sweep had a resolving record (completed or
     * poison-quarantined) when we left. */
    bool drained = false;
    /** This worker ran the shard compaction. */
    bool merged = false;

    // Claim-path cost counters (the dist_scan_bytes_job_* /
    // dist_claim_ops_job_* bench currency).
    /** Scan rounds over the pending set. */
    std::size_t scanRounds = 0;
    /** WorkClaim::tryAcquire round-trips (successful or not). */
    std::size_t claimAttempts = 0;
    /** Store bytes the tail reader consumed (incremental: peers'
     * appends and any own append it could not fold from memory, plus
     * re-reads after invalidation; rescan mode: the whole store per
     * refresh). The drain proof's load is not a tail read. */
    std::uint64_t storeBytesRead = 0;
    /** Tail-reader cursor invalidations that forced a full rescan. */
    std::uint64_t fullRescans = 0;
    /** Times the sweep cross-product was (re-)expanded. */
    std::uint64_t specExpansions = 0;
};

/** One worker process's drain loop over a shared sweep directory. */
class WorkerDaemon
{
  public:
    /** Validates options (throws std::invalid_argument on an empty
     * sweep dir or a non-token worker id). */
    explicit WorkerDaemon(WorkerOptions options);

    const WorkerOptions &options() const { return options_; }

    /** Drain loop over the sweep.json job list (re-checked every scan
     * round in daemon mode; re-expanded only on change). */
    WorkerReport run();

    /** Drain loop over a fixed job list (tests, benches). */
    WorkerReport run(const std::vector<ScenarioSpec> &specs);

    /** Ask the loop to stop (signal-safe: only sets an atomic flag).
     * A job in flight is *sealed*, not finished: the runner writes a
     * checkpoint at its current iteration, every held claim is
     * released, and no record is appended — the next claimant resumes
     * exactly there. */
    void requestStop() { stop_.store(true); }

  private:
    /** One claim gathered into the current batch. */
    struct BatchSlot
    {
        std::size_t index = 0;
        WorkClaim claim;
        int priorAttempts = 0;
        /** The loop began running this job; the watchdog releases
         * only slots that never started. */
        bool started = false;
        /** The loop is running this job now; the heartbeat stamps it
         * into the claim for the supervisor's watchdog. */
        bool running = false;
        /** Claim released or abandoned; heartbeat must not touch it
         * anymore. */
        bool done = false;
        /** Lease lost (renewal failed or watchdog abandoned it). */
        bool lost = false;
    };

    /** The fixed-for-one-round job list a scan operates on. */
    struct JobSet
    {
        const std::vector<ScenarioSpec> *specs = nullptr;
        const std::vector<std::string> *fingerprints = nullptr;
        std::uint64_t expansions = 0;
    };

    enum class JobOutcome
    {
        /** The batch ran to its end and committed. */
        Completed,
        /** The in-process watchdog abandoned the batch: progress
         * stalled past jobTimeoutMs. No record for the wedged job;
         * reapers rerun it. */
        TimedOut,
        /** requestStop ended the batch (a job sealed mid-run, or a
         * stop between jobs): finished jobs committed, every other
         * claim released. */
        Interrupted
    };

    WorkerReport runLoop(const std::function<JobSet()> &source);
    /** The scan/claim/run rounds; split out so runLoop can fold the
     * tail-reader counters into the report on every exit path. */
    WorkerReport scanLoop(const std::function<JobSet()> &source,
                          StoreTailReader &tail);
    JobOutcome runClaimedBatch(const JobSet &jobs,
                               std::vector<BatchSlot> &batch,
                               StoreTailReader &tail,
                               WorkerReport &report);
    /** Mutate the in-memory health status under its lock; the next
     * beat publishes it. */
    void updateHealth(const std::function<void(WorkerHealth &)> &fn);
    /** Writing beat: apply `fn` (if any) to the health status, then
     * write the metrics dump with the status embedded (stamping the
     * `worker.wall_ns` root gauge first), then flush the journal —
     * both best-effort. Timed as `worker.beat` on the
     * loop thread. */
    void beat(const std::function<void(WorkerHealth &)> &fn = nullptr);
    /** Idle poll: beat as idle, then sleep one jittered poll interval
     * (timed as `worker.idle`). */
    void idle();

    WorkerOptions options_;
    std::atomic<bool> stop_{false};
    std::mutex healthMutex_;
    WorkerHealth health_;
    /** The thread running the drain loop, and when its run began
     * (steady clock): the `worker.wall_ns` root the loop's phases
     * partition. */
    std::thread::id loopThread_;
    std::chrono::steady_clock::time_point runStart_;
    /** Fingerprints this process poison-quarantined. Liveness guard:
     * the scan treats them as resolved even if the appended poison
     * record cannot be re-loaded (e.g. its spec no longer passes
     * validation), so a drain can never loop on re-running a job
     * this process has already given up on. */
    std::set<std::string> poisoned_;
};

} // namespace treevqa

#endif // TREEVQA_DIST_WORKER_DAEMON_H
