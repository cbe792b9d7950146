/**
 * @file
 * Group commit: the one rule by which every drain loop makes finished
 * job records durable and publishes them — the single-process
 * JobScheduler (svc/job_scheduler.h) and the fleet's WorkerDaemon
 * (dist/worker_daemon.h) both call commitJobRecords.
 *
 * A finished job's record waits in memory (a store buffer) with its
 * checkpoint still on disk. One commit then runs, in this order:
 *  1. one ResultStore batch append of every record: one write, one
 *     fsync (fault sites "store.append", "file.append.fsync");
 *  2. retireCheckpoints (svc/scenario_runner.h) deletes every
 *     checkpoint file of the completed records' jobs: both
 *     generations and any staging copy a kill left behind; a batch
 *     of jobs that never checkpoint costs no syscall here;
 *  3. a `job.completed` event per completed record, detail
 *     `{"name", "resumed"}`, and the caller's hook per failed
 *     (poisoned) record, in record order;
 *  4. one journal flush.
 * The fsync is the fence that publishes the batch (the store-buffer
 * argument of "Reasoning About TSO Programs Using Reduction and
 * Abstraction"): no checkpoint is retired and no event journaled
 * before it has returned. So a SIGKILL costs at most the unflushed
 * batch, whose jobs resume from their newest checkpoints with
 * bit-identical records. A caller with leases (the worker) confirms
 * ownership before the commit and releases its claims only after it.
 */

#ifndef TREEVQA_SVC_GROUP_COMMIT_H
#define TREEVQA_SVC_GROUP_COMMIT_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "svc/result_store.h"

namespace treevqa {

/** Records per group commit: the scheduler's buffer size and the
 * worker's default claim batch. */
inline constexpr int kGroupCommitBatch = 8;

/**
 * Commit `records` to `store` by the steps above; checkpoints live
 * under `sweepDir`'s checkpoints/. Steps 2 and 3 act only on the
 * records that landed whole (a torn append keeps a prefix of the
 * batch): the rest keep their checkpoints, get no event and stay
 * pending. `onFailed(i)` runs at step 3 for each landed failed record
 * `records[i]` (null: failed records only get appended). No-op on an
 * empty batch. An append failure throws before any later step,
 * leaving every checkpoint in place. Returns what the append wrote
 * (ResultStore::append): a caller counts only the `landed` records,
 * and one folding its own commits (dist/store_tail.h) checks the file
 * against `bytes`.
 */
StoreAppend commitJobRecords(
    ResultStore &store, const std::string &sweepDir,
    const std::vector<JobResult> &records,
    const std::function<void(std::size_t)> &onFailed = nullptr);

} // namespace treevqa

#endif // TREEVQA_SVC_GROUP_COMMIT_H
