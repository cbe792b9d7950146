/**
 * @file
 * JobScheduler: runs a queue of independent scenario jobs over the
 * process-wide ThreadPool.
 *
 * Scheduling model: the job queue is one ThreadPool::run() over the
 * pending specs, so outer job parallelism and the inner
 * batched-evaluation parallelism share the *same* fixed set of lanes
 * — a job executing on a pool lane evaluates its probe batches inline
 * (the pool's nested-run-inline path), which bounds total concurrency
 * at the pool size instead of multiplying jobs x batch lanes.
 * Scheduler concurrency is therefore ThreadPool::global().numThreads()
 * (resize the pool, or set TREEVQA_NUM_THREADS, to change it).
 *
 * Determinism: every job's random streams derive from its spec seed
 * alone, so a sweep's per-job records are bit-identical at any
 * concurrency and any completion order. Results are returned in spec
 * order regardless of completion order.
 *
 * Resume: with an output directory configured, every job keeps a
 * checkpoint file under <outDir>/checkpoints/ (per its spec's
 * interval) until its record is durable, and completed records are
 * group-committed to the ResultStore JSONL (svc/group_commit.h):
 * finished records wait in a buffer, and the lane whose record fills
 * it to kGroupCommitBatch commits the batch (one write, one fsync,
 * then checkpoint retirement and `job.completed` events) while the
 * other lanes keep running; the remainder commits after the pool run,
 * also when a job threw, before the rethrow. A SIGKILL therefore
 * costs at most the unflushed batch. A rerun of the same sweep skips
 * recorded jobs (fingerprint match), retiring any checkpoint a kill
 * after the fsync left behind, and resumes the others from their
 * newest checkpoints, reaching the same final energies as an
 * uninterrupted run.
 *
 * Observability: a drain with an output directory journals to
 * <outDir>/events/scheduler-p<pid>.jsonl and, at its end, writes one
 * best-effort metrics dump (<outDir>/metrics/scheduler-p<pid>.json)
 * whose `scheduler.wall_ns` root gauge is partitioned by the
 * calling thread's phases: store load, pool run and final commit.
 */

#ifndef TREEVQA_SVC_JOB_SCHEDULER_H
#define TREEVQA_SVC_JOB_SCHEDULER_H

#include <string>
#include <vector>

#include "svc/result_store.h"
#include "svc/scenario_runner.h"

namespace treevqa {

/** Scheduler configuration. */
struct SchedulerConfig
{
    /** Persistence root: <outDir>/results.jsonl plus
     * <outDir>/checkpoints/<fingerprint>.json. Empty = in-memory run
     * (no checkpointing, no store, no resume). */
    std::string outDir;
};

/** Outcome of one sweep submission. */
struct SweepResult
{
    /** Per-job records in spec order. */
    std::vector<JobResult> jobs;
    /** Jobs actually executed (fresh or resumed) this call. */
    std::size_t executed = 0;
    /** Jobs skipped because the store already held their record. */
    std::size_t skipped = 0;
};

/** The scenario-job scheduler. */
class JobScheduler
{
  public:
    explicit JobScheduler(SchedulerConfig config = {});

    /**
     * Run every spec to completion and return records in spec order. Throws std::invalid_argument on
     * duplicate spec fingerprints (two identical jobs would race on
     * one checkpoint file).
     */
    SweepResult run(const std::vector<ScenarioSpec> &specs);

    const SchedulerConfig &config() const { return config_; }

    /** The store path this scheduler appends to ("" when in-memory). */
    std::string resultStorePath() const;

    /** The checkpoint file a spec would use under this scheduler. */
    std::string checkpointPathFor(const ScenarioSpec &spec) const;

  private:
    /** The checkpoint file of the job with `fingerprint` ("" when
     * in-memory). */
    std::string checkpointPath(const std::string &fingerprint) const;

    SchedulerConfig config_;
};

} // namespace treevqa

#endif // TREEVQA_SVC_JOB_SCHEDULER_H
