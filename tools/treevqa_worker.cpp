/**
 * @file
 * treevqa_worker — one distributed-sweep worker process.
 *
 * N of these (on any hosts sharing a filesystem) cooperatively drain
 * one sweep directory: each scans for unrecorded jobs, claims a batch
 * of them via atomic lease files, runs them through the checkpointed
 * scenario runner (heartbeating the leases), and commits the batch's
 * records to its private store shard with one append and one fsync. A crashed worker's lease expires and a
 * survivor resumes the job from its last checkpoint. See
 * src/dist/worker_daemon.h for the protocol.
 *
 *   treevqa_worker --sweep-dir DIR [--spec FILE] [--worker-id ID]
 *                  [--lease-ms N] [--max-jobs N] [--drain-and-exit]
 *                  [--poll-ms N] [--no-merge] [--merge-only]
 *
 *   --sweep-dir DIR  the shared sweep directory (required)
 *   --spec FILE      seed DIR/sweep.json from FILE (validated first);
 *                    other workers need only --sweep-dir
 *   --worker-id ID   claim/shard identity (default "<host>-<pid>";
 *                    must be unique per worker)
 *   --lease-ms N     claim lease duration (default 30000); a crashed
 *                    worker's job becomes reclaimable after this
 *   --max-jobs N     exit after completing N jobs
 *   --drain-and-exit exit once every job has a record (default: keep
 *                    polling sweep.json for new work)
 *   --poll-ms N      idle rescan interval (default 200)
 *   --claim-batch N  jobs leased per scan pass (default 8); the batch
 *                    shares one heartbeat thread, commits its records
 *                    with one fsync and releases (or, on a crash,
 *                    abandons) together
 *   --no-merge       skip the shard→store compaction after draining
 *   --merge-only     just run the merge/compaction pass and exit;
 *                    exits 1 when corrupt store lines were found (the
 *                    lines are quarantined, their shards moved to
 *                    DIR/quarantine/, never deleted)
 *   --max-job-attempts N
 *                    retry budget for throwing jobs before poison
 *                    quarantine (default 3)
 *   --retry-backoff-ms N
 *                    base backoff between attempts (default 50)
 *   --job-timeout-ms N
 *                    in-process hung-job watchdog: when the job's
 *                    progress counter stalls this long the heartbeat
 *                    releases the batch's queued jobs and abandons
 *                    the wedged job's lease so another worker can
 *                    reap it (default off; the supervisor adds the
 *                    external SIGKILL variant)
 *
 * Crash drills arm TREEVQA_FAULT_PLAN (common/fault_injection.h): a
 * `crash` entry at site `checkpoint.written` with `"hit": N` SIGKILLs
 * the worker after its Nth durable checkpoint, holding a live lease.
 * Adding `"times": K, "tokens": "DIR/crash-tokens"` makes the K kills
 * one budget for a whole supervised fleet, however often restarted
 * children re-arm the plan.
 *
 * SIGINT/SIGTERM stop the loop after the job in flight. Exit codes:
 * 0 success, 1 runtime error, 2 usage error (a planned crash shows
 * as signal 9 / shell status 137).
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/file_util.h"
#include "common/metrics.h"
#include "dist/store_merge.h"
#include "dist/worker_daemon.h"
#include "svc/sweep_dir.h"
#include "svc/sweep_index.h"

#include "cli_util.h"

using namespace treevqa;

namespace {

int
usage(const char *argv0, bool requested)
{
    std::fprintf(
        requested ? stdout : stderr,
        "usage: %s --sweep-dir DIR [--spec FILE] [--worker-id ID]\n"
        "       [--lease-ms N] [--max-jobs N] [--drain-and-exit]\n"
        "       [--poll-ms N] [--claim-batch N]\n"
        "       [--no-merge] [--merge-only]\n"
        "       [--max-job-attempts N] [--retry-backoff-ms N]\n"
        "       [--job-timeout-ms N]\n",
        argv0);
    return requested ? 0 : 2;
}

WorkerDaemon *g_daemon = nullptr;

extern "C" void
handleStopSignal(int)
{
    if (g_daemon != nullptr)
        g_daemon->requestStop();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string sweep_dir;
    std::string spec_path;
    std::string worker_id;
    long lease_ms = 30000;
    long max_jobs = 0;
    long poll_ms = 200;
    bool drain_and_exit = false;
    bool merge_on_drain = true;
    bool merge_only = false;
    long max_job_attempts = 3;
    long retry_backoff_ms = 50;
    long job_timeout_ms = 0;
    long claim_batch = kGroupCommitBatch;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next_value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        const auto next_positive = [&](long &out) {
            if (!parsePositive(next_value(), out)) {
                std::fprintf(stderr,
                             "%s must be an integer >= 1\n",
                             arg.c_str());
                std::exit(2);
            }
        };
        if (arg == "--sweep-dir") {
            sweep_dir = next_value();
        } else if (arg == "--spec") {
            spec_path = next_value();
        } else if (arg == "--worker-id") {
            worker_id = next_value();
        } else if (arg == "--lease-ms") {
            next_positive(lease_ms);
        } else if (arg == "--max-jobs") {
            next_positive(max_jobs);
        } else if (arg == "--poll-ms") {
            next_positive(poll_ms);
        } else if (arg == "--claim-batch") {
            next_positive(claim_batch);
        } else if (arg == "--drain-and-exit") {
            drain_and_exit = true;
        } else if (arg == "--no-merge") {
            merge_on_drain = false;
        } else if (arg == "--merge-only") {
            merge_only = true;
        } else if (arg == "--max-job-attempts") {
            next_positive(max_job_attempts);
        } else if (arg == "--retry-backoff-ms") {
            next_positive(retry_backoff_ms);
        } else if (arg == "--job-timeout-ms") {
            next_positive(job_timeout_ms);
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0], true);
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return usage(argv[0], false);
        }
    }
    if (sweep_dir.empty())
        return usage(argv[0], false);

    try {
        if (!spec_path.empty()) {
            // Validate before seeding the shared directory: a broken
            // request must fail here, not in every worker.
            std::string text;
            if (!readTextFile(spec_path, text)) {
                std::fprintf(stderr, "cannot read %s\n",
                             spec_path.c_str());
                return 1;
            }
            seedSweepDir(sweep_dir, text,
                         expandScenarios(JsonValue::parse(text)),
                         "seed");
        }

        if (merge_only) {
            // The fleet may still be live, so fold the shards without
            // deleting them; the drained worker retires them.
            const SweepMergeStats stats = compactSweepStore(
                sweep_dir, /*removeMergedShards=*/false);
            std::printf("merged %zu records (%zu unique) from %zu "
                        "shard(s) into %s (shards kept)\n",
                        stats.inputRecords, stats.uniqueRecords,
                        stats.shardFiles,
                        sweepStorePath(sweep_dir).c_str());
            if (stats.corruptLines > 0) {
                // Corruption is an operator-visible condition: the
                // bad lines were quarantined (and their shards moved
                // aside, never deleted), but a clean exit would hide
                // that jobs may rerun. Fail the merge so scripts see.
                std::fprintf(stderr,
                             "treevqa_worker: %zu corrupt line(s) "
                             "quarantined (%zu shard(s) moved to %s); "
                             "failing --merge-only\n",
                             stats.corruptLines,
                             stats.quarantinedShards,
                             quarantineDirFor(sweepStorePath(sweep_dir))
                                 .c_str());
                return 1;
            }
            return 0;
        }

        WorkerOptions options;
        options.sweepDir = sweep_dir;
        options.workerId = worker_id;
        options.leaseMs = lease_ms;
        options.maxJobs = static_cast<int>(max_jobs);
        options.pollMs = poll_ms;
        options.drainAndExit = drain_and_exit;
        options.mergeOnDrain = merge_on_drain;
        options.maxJobAttempts = static_cast<int>(max_job_attempts);
        options.retryBackoffMs = retry_backoff_ms;
        options.jobTimeoutMs = job_timeout_ms;
        options.claimBatch = static_cast<int>(claim_batch);

        WorkerDaemon daemon(options);
        g_daemon = &daemon;
        std::signal(SIGINT, handleStopSignal);
        std::signal(SIGTERM, handleStopSignal);

        const WorkerReport report = daemon.run();
        g_daemon = nullptr;

        // Both report lines read the metrics registry (one daemon per
        // process, so registry totals == this run's totals): the same
        // instruments feed `treevqa_run --metrics`, keeping the two
        // views impossible to skew. Booleans stay on the report.
        const MetricsSnapshot metrics =
            MetricsRegistry::instance().snapshot();
        const auto counter = [&](const char *name) {
            const auto it = metrics.counters.find(name);
            return it == metrics.counters.end() ? std::uint64_t{0}
                                                : it->second;
        };
        const auto gauge = [&](const char *name) {
            const auto it = metrics.gauges.find(name);
            return it == metrics.gauges.end() ? std::int64_t{0}
                                              : it->second;
        };
        std::printf("worker %s: completed=%llu resumed=%llu "
                    "reaped=%llu lost=%llu poisoned=%llu "
                    "timedout=%llu interrupted=%llu drained=%s "
                    "merged=%s\n",
                    daemon.options().workerId.c_str(),
                    static_cast<unsigned long long>(
                        counter("worker.jobs_completed")),
                    static_cast<unsigned long long>(
                        counter("worker.jobs_resumed")),
                    static_cast<unsigned long long>(
                        counter("worker.leases_reaped")),
                    static_cast<unsigned long long>(
                        counter("worker.claims_lost")),
                    static_cast<unsigned long long>(
                        counter("worker.jobs_poisoned")),
                    static_cast<unsigned long long>(
                        counter("worker.jobs_timed_out")),
                    static_cast<unsigned long long>(
                        counter("worker.jobs_interrupted")),
                    report.drained ? "yes" : "no",
                    report.merged ? "yes" : "no");
        std::printf("worker %s: scans=%llu claims=%llu "
                    "store-bytes=%llu rescans=%llu expansions=%llu\n",
                    daemon.options().workerId.c_str(),
                    static_cast<unsigned long long>(
                        counter("worker.scan_rounds")),
                    static_cast<unsigned long long>(
                        counter("worker.claim_attempts")),
                    static_cast<unsigned long long>(
                        counter("store.tail_bytes_read")),
                    static_cast<unsigned long long>(
                        counter("store.tail_full_rescans")),
                    static_cast<unsigned long long>(
                        gauge("worker.spec_expansions")));
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "treevqa_worker: %s\n", e.what());
        return 1;
    }
}
