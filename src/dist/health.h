/**
 * @file
 * Machine-readable fleet health surface, derived from the metrics
 * dumps.
 *
 * Every process working on a sweep — each worker daemon and the
 * supervisor — writes one file per beat: its per-incarnation metrics
 * dump (`<sweep>/metrics/<id>-p<pid>.json`, common/metrics.h), with a
 * `status` object (beatStatus) embedded beside the registry snapshot.
 * The dump is *observability, not coordination*: nothing in the
 * claim/lease protocol reads it, a missing or stale file never blocks
 * progress, and a write failure is tolerated (fault site
 * "metrics.write").
 *
 * `treevqa_run --health <dir>` folds the dumps into one fleet view
 * (aggregateHealthJson): one row per process id, sorted by id, whose
 * state, current job and wall-clock staleness come from the id's
 * newest incarnation and whose job counts are the id's registry
 * counters summed over every incarnation — so a SIGKILLed and
 * restarted worker's completions still count, and the fleet totals
 * equal `--metrics`. Staleness is the reader's problem by design —
 * writers stamp `writtenMs` and the aggregator subtracts, so a crashed
 * worker shows up as a growing `staleMs`, not as absence of evidence.
 */

#ifndef TREEVQA_DIST_HEALTH_H
#define TREEVQA_DIST_HEALTH_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"

namespace treevqa {

/** One process's in-memory status, published by its next beat. */
struct WorkerHealth
{
    /** "worker" or "supervisor"; picks the counters a `--health` row
     * reads its job counts from. */
    std::string role = "worker";
    /** Coarse lifecycle state: "starting", "idle", "running",
     * "draining", "stopped" for workers; "supervising", "shutting-down"
     * for the supervisor. Free-form by design — the aggregator only
     * groups by it. */
    std::string state = "starting";
    /** Process start time (Unix ms). */
    std::int64_t startedMs = 0;
    /** The in-flight job, when state == "running". */
    std::string jobFingerprint;
    std::string jobName;
    /** The job's monotonic progress counter (optimizer iteration);
     * -1 when no progress has been reported. */
    std::int64_t jobProgress = -1;
    /** 1-based retry attempt of the in-flight job. */
    int jobAttempt = 0;
    /** The writer's declared beat cadence in ms; lets the aggregator
     * flag a dump older than 2× the cadence as stale (a crashed or
     * wedged writer) instead of leaving staleness interpretation to
     * the reader. */
    std::int64_t flushIntervalMs = 0;
};

/**
 * The `status` object a beat embeds in its metrics dump: `health`'s
 * fields plus `rssKb` (resident set size in KiB from /proc/self/statm,
 * -1 when unavailable) and `hlc`, a fresh tick of the process clock
 * (common/event_log.h), both stamped now.
 */
JsonValue beatStatus(const WorkerHealth &health);

/**
 * The `treevqa_run --health` document over `readMetricsDumps` output:
 * per-process rows (sorted by id, each with `staleMs` = nowMs - the
 * newest incarnation's `writtenMs`) plus fleet totals — process counts
 * by state and summed job counts. A worker row counts
 * `worker.jobs_{completed,poisoned,timed_out}`; a supervisor row counts
 * `supervisor.{crashes,watchdog_kills}` as failed and timed out. Dumps
 * without a `status` object are skipped, like torn ones.
 */
JsonValue aggregateHealthJson(
    const std::vector<std::pair<std::string, JsonValue>> &dumps,
    std::int64_t nowMs);

} // namespace treevqa

#endif // TREEVQA_DIST_HEALTH_H
