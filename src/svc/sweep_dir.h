/**
 * @file
 * The shared sweep-directory layout: every path the orchestration and
 * distribution layers agree on lives here, so a JobScheduler run, an
 * N-process worker fleet (src/dist/), the merge/compaction pass and
 * the `treevqa_run --status` view all read and write the same files.
 *
 *   <dir>/sweep.json                  the request document (written by
 *                                     treevqa_run --out / --spec; what
 *                                     workers expand into their job
 *                                     list)
 *   <dir>/results.jsonl               canonical append-only store
 *   <dir>/summary.json                deterministic aggregate view
 *   <dir>/checkpoints/<fp>.json       per-job resume state; `.prev`
 *                                     is its last-good generation,
 *                                     `.tmp.<pid>.<n>` a staging copy
 *                                     (svc/scenario_runner.h)
 *   <dir>/claims/<fp>.lock            per-job work claim (lease)
 *   <dir>/workers/<worker>.jsonl      per-worker store shard (merged
 *                                     into results.jsonl on
 *                                     compaction)
 *   <dir>/logs/<worker>.log           child stdout/stderr when spawned
 *                                     by the supervisor
 *   <dir>/metrics/<token>.json        per-process metrics-registry
 *                                     dump (common/metrics.h) with
 *                                     the process's health status
 *                                     embedded (dist/health.h); one
 *                                     file per process incarnation,
 *                                     the only file a beat writes
 *                                     (a JobScheduler drain writes
 *                                     one, without status, at its
 *                                     end); folded by `treevqa_run
 *                                     --metrics` and `--health`
 *   <dir>/events/<token>.jsonl        per-incarnation causal event
 *                                     journal (common/event_log.h),
 *                                     HLC-stamped; merged by
 *                                     `treevqa_run --timeline` and
 *                                     `--events`; under TREEVQA_TRACE
 *                                     it also carries the process's
 *                                     `trace.span` events
 *                                     (common/trace.h)
 *
 * `<token>` is sweepIncarnationToken(id): "<id>-p<pid>".
 */

#ifndef TREEVQA_SVC_SWEEP_DIR_H
#define TREEVQA_SVC_SWEEP_DIR_H

#include <filesystem>
#include <string>

#include <unistd.h>

namespace treevqa {

/** "<id>-p<pid>": the file token of this process incarnation, so a
 * restarted slot (same id, new pid) adds metrics and journal
 * files instead of overwriting its predecessor's. `id` must already
 * be a filesystem-safe token (worker ids and "supervisor" are). */
inline std::string
sweepIncarnationToken(const std::string &id)
{
    return id + "-p" + std::to_string(::getpid());
}

inline std::string
sweepSpecPath(const std::string &dir)
{
    return (std::filesystem::path(dir) / "sweep.json").string();
}

inline std::string
sweepStorePath(const std::string &dir)
{
    return (std::filesystem::path(dir) / "results.jsonl").string();
}

inline std::string
sweepSummaryPath(const std::string &dir)
{
    return (std::filesystem::path(dir) / "summary.json").string();
}

inline std::string
sweepCheckpointDir(const std::string &dir)
{
    return (std::filesystem::path(dir) / "checkpoints").string();
}

inline std::string
sweepCheckpointPath(const std::string &dir,
                    const std::string &fingerprint)
{
    return (std::filesystem::path(dir) / "checkpoints"
            / (fingerprint + ".json"))
        .string();
}

inline std::string
sweepClaimDir(const std::string &dir)
{
    return (std::filesystem::path(dir) / "claims").string();
}

inline std::string
sweepShardDir(const std::string &dir)
{
    return (std::filesystem::path(dir) / "workers").string();
}

inline std::string
sweepShardPath(const std::string &dir, const std::string &workerId)
{
    return (std::filesystem::path(dir) / "workers"
            / (workerId + ".jsonl"))
        .string();
}

inline std::string
sweepLogDir(const std::string &dir)
{
    return (std::filesystem::path(dir) / "logs").string();
}

inline std::string
sweepLogPath(const std::string &dir, const std::string &workerId)
{
    return (std::filesystem::path(dir) / "logs"
            / (workerId + ".log"))
        .string();
}

inline std::string
sweepMetricsDir(const std::string &dir)
{
    return (std::filesystem::path(dir) / "metrics").string();
}

/** One per-process metrics dump (`fileToken` from
 * sweepIncarnationToken), so restarted slots add files instead of
 * overwriting their predecessor's totals. */
inline std::string
sweepMetricsPath(const std::string &dir,
                 const std::string &fileToken)
{
    return (std::filesystem::path(dir) / "metrics"
            / (fileToken + ".json"))
        .string();
}

inline std::string
sweepEventDir(const std::string &dir)
{
    return (std::filesystem::path(dir) / "events").string();
}

/** One per-incarnation event journal (`fileToken` from
 * sweepIncarnationToken), so every incarnation appends to its own
 * journal and handoffs stay attributable. */
inline std::string
sweepEventPath(const std::string &dir, const std::string &fileToken)
{
    return (std::filesystem::path(dir) / "events"
            / (fileToken + ".jsonl"))
        .string();
}

} // namespace treevqa

#endif // TREEVQA_SVC_SWEEP_DIR_H
