/**
 * @file
 * ScenarioRunner: executes one ScenarioSpec as a checkpointed,
 * deterministic optimization job.
 *
 * The runner materializes the spec (problem -> task, ansatz,
 * optimizer) as one single-task VqaCluster with the spec's
 * EngineConfig, and steps it while iterations are left and its shots
 * are below spec.shotBudget: a scenario job is a tree of one node, so
 * its iteration and budget rule are a tree round's (Algorithm 1), and
 * its split requests are ignored. Every random stream derives
 * from the spec seed alone (deriveScenarioSeed), so a job's result is
 * a pure function of its spec — independent of scheduler concurrency,
 * completion order, and of whether the run was interrupted:
 *
 *  - **Checkpointing.** Every spec.checkpointInterval iterations the
 *    cluster's saveState (optimizer internals, evaluation-noise RNG,
 *    parameters, split-monitor windows), the shot balance, the loss
 *    trajectory, the best-so-far parameters and the iteration are
 *    serialized to a per-job file (atomic tmp+rename, keyed by the
 *    spec fingerprint) carrying a CRC32 self-check; the previous
 *    generation is rotated to `<path>.prev` as the last-good
 *    fallback. Only the current format version is read.
 *  - **Resume.** When the checkpoint file exists, passes its CRC and
 *    matches the fingerprint, the runner restores it and continues; a
 *    corrupt current file falls back to `.prev`, and a job resumed
 *    from either generation reaches bit-identical final energies to
 *    an uninterrupted run, because JSON number round-trips are exact
 *    (common/json.h), the loop re-executes the same evaluation
 *    sequence, and the budget check reads only checkpointed shots.
 *  - **Retirement.** A completed job's checkpoint outlives the run:
 *    retireCheckpoints, the only code that deletes checkpoint files,
 *    removes all of them (staging copies included) once the job's
 *    record is durable, so no kill leaves a job with neither.
 *  - **Kill points.** After each interval checkpoint is durable and
 *    journaled, the runner evaluates the `checkpoint.written` fault
 *    site (common/fault_injection.h). A `crash` entry there is how
 *    every kill-and-resume drill kills a job mid-run; in-process
 *    tests crash the same way inside a death test.
 */

#ifndef TREEVQA_SVC_SCENARIO_RUNNER_H
#define TREEVQA_SVC_SCENARIO_RUNNER_H

#include <atomic>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "svc/scenario_spec.h"

namespace treevqa {

/** The persistent record of one scenario job. */
struct JobResult
{
    ScenarioSpec spec;
    std::string fingerprint;
    /** False when a graceful stop (ScenarioRunOptions::shouldStop)
     * sealed the run before it finished; such jobs are not finalized
     * and not recorded. */
    bool completed = false;
    /** True when the run continued from a checkpoint file. */
    bool resumed = false;
    /** True for a poison-job quarantine record: the job threw on
     * every attempt within the worker's retry budget and was recorded
     * as failed so the drain can finish (worker_daemon.h). Always
     * false on completed records. */
    bool failed = false;
    /** The last attempt's error, for failed records. */
    std::string errorMessage;
    /**
     * Failed attempts this record accounts for (at least 1 on
     * failed=true records; a stored failed record with fewer is
     * rejected as malformed). Persisted so the *fleet-wide* poison
     * budget works: JobResolution (result_store.h) sums attempts
     * across every worker's failure records, and any worker that
     * observes >= its --max-job-attempts cumulative attempts skips
     * the spec durably — one budget for the whole fleet, not one per
     * worker. */
    int attempts = 0;
    /** True when this failure was a hung-job timeout (the watchdog
     * killed or abandoned the attempt because the lease kept renewing
     * while progress stalled), not a thrown error. */
    bool timedOut = false;
    int iterations = 0;
    std::uint64_t shotsUsed = 0;
    /** Per-iteration noisy loss (the optimizer's view). */
    std::vector<double> trajectory;
    /** Lowest trajectory loss and the iterate that produced it. */
    double bestLoss = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> bestParams;
    /** Exact (noiseless) task energy at bestParams. */
    double finalEnergy = std::numeric_limits<double>::quiet_NaN();
    /** FCI reference and fidelity (NaN unless spec.computeReference). */
    double groundEnergy = std::numeric_limits<double>::quiet_NaN();
    double fidelity = std::numeric_limits<double>::quiet_NaN();
    /** Resolved SimBackend registry name the job executed on. */
    std::string backend;
    /** Wall time spent in this process (not restored on resume;
     * excluded from deterministic summaries). */
    double wallSeconds = 0.0;
};

/** Per-run knobs orthogonal to the spec. */
struct ScenarioRunOptions
{
    /** Checkpoint file path; empty disables checkpointing even when
     * the spec asks for an interval. */
    std::string checkpointPath;
    /**
     * Live progress surface: when non-null, the runner stores the
     * completed-iteration count here after every optimizer step. The
     * worker daemon's heartbeat thread reads it to stamp progress into
     * lease renewals (the hung-job watchdog's signal) and the health
     * status of its beats. The runner only writes; it never reads the value back,
     * so sharing the atomic costs nothing determinism-wise.
     */
    std::atomic<std::int64_t> *progressCounter = nullptr;
    /**
     * Graceful-stop poll: checked after every iteration. When it
     * returns true the runner *seals* the job — writes a checkpoint at
     * the current iteration (even off the checkpointInterval grid) and
     * returns with completed=false — so a SIGTERM'd worker hands the
     * job to the next claimant at iteration granularity instead of
     * running to completion past its grace window. Resume from a
     * sealed checkpoint is bit-identical to an uninterrupted run.
     */
    std::function<bool()> shouldStop;
};

/** Execute one scenario job (resuming from its checkpoint if one
 * exists). Deterministic: the same spec always yields byte-identical
 * energy records at any thread-pool size. */
JobResult runScenario(const ScenarioSpec &spec,
                      const ScenarioRunOptions &options = {});

/**
 * Delete the checkpoint files (`.json`, `.json.prev`, staging copies)
 * of `records`' completed jobs whose spec checkpoints, in one listing
 * of `sweepDir`'s checkpoints/; with no such record, no syscall. Call
 * it after the records' fsync: the group commit, a rerun's skip and
 * the drained compaction do. In a live fleet a lost-lease zombie may
 * be writing a staging copy of a job its reaper just committed: its
 * rename then fails and its commit's ownership confirm drops it.
 */
void retireCheckpoints(const std::string &sweepDir,
                       const std::vector<JobResult> &records);

/** The little a progress view needs from a checkpoint file. */
struct CheckpointPeek
{
    std::string fingerprint;
    int iteration = 0;
};

/** Read a checkpoint's identity and progress without restoring it
 * (the `treevqa_run --status` view), in restore order: `path`, then
 * `<path>.prev`. nullopt when neither passes its CRC. */
std::optional<CheckpointPeek> peekCheckpoint(const std::string &path);

} // namespace treevqa

#endif // TREEVQA_SVC_SCENARIO_RUNNER_H
