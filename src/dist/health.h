/**
 * @file
 * Machine-readable fleet health surface.
 *
 * Every process working on a sweep — each worker daemon and the
 * supervisor — periodically writes an atomic JSON snapshot of its own
 * state to `<sweep>/health/<id>.json` (sweep_dir.h layout). Snapshots
 * are *observability, not coordination*: nothing in the claim/lease
 * protocol reads them, a missing or stale file never blocks progress,
 * and a write failure is tolerated (fault site "health.write"), so the
 * health surface cannot turn a monitoring hiccup into a sweep outage.
 *
 * `treevqa_run --health <dir>` aggregates the per-process snapshots
 * into one fleet view (aggregateHealthJson): per-worker rows sorted by
 * id with wall-clock staleness, plus fleet totals of jobs completed /
 * failed / timed out. Staleness is the reader's problem by design —
 * writers stamp `updatedMs` and the aggregator subtracts, so a crashed
 * worker shows up as a growing `staleMs`, not as absence of evidence.
 */

#ifndef TREEVQA_DIST_HEALTH_H
#define TREEVQA_DIST_HEALTH_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/event_log.h"
#include "common/json.h"

namespace treevqa {

/** One process's self-reported health snapshot. */
struct WorkerHealth
{
    /** The snapshot's identity (worker id, or the supervisor's). */
    std::string id;
    std::int64_t pid = 0;
    /** "worker" or "supervisor". */
    std::string role = "worker";
    /** Coarse lifecycle state: "starting", "idle", "running",
     * "draining", "stopped" for workers; "supervising", "shutting-down"
     * for the supervisor. Free-form by design — the aggregator only
     * groups by it. */
    std::string state = "starting";
    /** Process start and snapshot times (Unix ms). */
    std::int64_t startedMs = 0;
    std::int64_t updatedMs = 0;
    /** The in-flight job, when state == "running". */
    std::string jobFingerprint;
    std::string jobName;
    /** The job's monotonic progress counter (optimizer iteration);
     * -1 when no progress has been reported. */
    std::int64_t jobProgress = -1;
    /** 1-based retry attempt of the in-flight job. */
    int jobAttempt = 0;
    /** Lifetime counters for this process. */
    std::int64_t jobsCompleted = 0;
    std::int64_t jobsFailed = 0;
    std::int64_t jobsTimedOut = 0;
    /** Resident set size in KiB (/proc/self/statm); -1 when the
     * platform does not expose it. */
    std::int64_t rssKb = -1;
    /** The writer's declared snapshot cadence in ms; lets the
     * aggregator flag a snapshot older than 2× the cadence as stale
     * (a crashed or wedged writer) instead of leaving staleness
     * interpretation to the reader. */
    std::int64_t flushIntervalMs = 0;
    /** The writer's hybrid-logical-clock stamp at the write
     * (common/event_log.h); readers observe() it so cross-process
     * views order causally, not by skewed wall clocks. */
    Hlc hlc;
};

JsonValue healthToJson(const WorkerHealth &health);
WorkerHealth healthFromJson(const JsonValue &json);

/** This process's resident set size in KiB via /proc/self/statm;
 * -1 when unavailable. */
std::int64_t currentRssKb();

/**
 * Atomically write `health` to `<sweepDir>/health/<id>.json`, stamping
 * `updatedMs` (now) and `rssKb` (currentRssKb) into the snapshot
 * first. Best effort: returns false — never throws — when the write
 * fails (fault site "health.write" fail-errno, unwritable directory).
 */
bool writeHealthSnapshot(const std::string &sweepDir,
                         WorkerHealth health);

/** Read every parseable snapshot under `<sweepDir>/health/`, sorted by
 * id. Unparseable files are skipped (a torn snapshot will be
 * overwritten by its writer's next beat). */
std::vector<WorkerHealth> readHealthSnapshots(const std::string &sweepDir);

/**
 * The `treevqa_run --health` document: per-process rows (sorted by
 * id, each with `staleMs` = nowMs - updatedMs) plus fleet totals —
 * process counts by state and summed job counters.
 */
JsonValue aggregateHealthJson(const std::vector<WorkerHealth> &snapshots,
                              std::int64_t nowMs);

} // namespace treevqa

#endif // TREEVQA_DIST_HEALTH_H
