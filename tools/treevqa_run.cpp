/**
 * @file
 * treevqa_run — the scenario-orchestration CLI.
 *
 * Turns a declarative spec file (one scenario, an array, or a sweep)
 * into scheduled jobs over the shared thread pool, with per-job
 * checkpoint/resume and an append-only JSONL result store.
 *
 *   treevqa_run SPEC.json [--out DIR] [--jobs N] [--fresh]
 *               [--print-specs] [--validate] [--summary-only]
 *   treevqa_run [SPEC.json] --status --out DIR [--limit N]
 *               [--after FINGERPRINT]
 *   treevqa_run --health --out DIR
 *   treevqa_run --metrics --out DIR [--since PRIOR.json]
 *   treevqa_run --timeline FINGERPRINT --out DIR
 *   treevqa_run --events --out DIR [--type T] [--worker W] [--job FP]
 *               [--since-hlc KEY] [--until-hlc KEY] [--limit N]
 *               [--after KEY]
 *   treevqa_run --watch --out DIR [--watch-rounds N]
 *               [--watch-interval-ms MS]
 *
 *   --out DIR     persist DIR/results.jsonl, DIR/checkpoints/*.json,
 *                 DIR/summary.json and the request itself as
 *                 DIR/sweep.json (which seeds treevqa_worker
 *                 processes); rerunning with the same DIR skips
 *                 completed jobs and resumes checkpointed ones
 *   --jobs N      thread-pool lanes (default: TREEVQA_NUM_THREADS or
 *                 hardware concurrency); jobs and inner probe batches
 *                 share these lanes
 *   --fresh       remove DIR's store/checkpoints/claims/shards before
 *                 running
 *   --print-specs expand the request and print the job list, run
 *                 nothing
 *   --validate    dry run: parse + expand the request, report the job
 *                 count and fingerprints, exit non-zero on any error;
 *                 never touches the output directory
 *   --status      progress view over a (possibly live) sweep
 *                 directory: per job, whether it is recorded (done /
 *                 failed / timed-out / poisoned), claimed by a worker
 *                 (owner + lease + progress), checkpointed, or
 *                 pending, plus the count of corrupt store lines that
 *                 were quarantined. SPEC.json may be omitted when DIR
 *                 holds sweep.json
 *   --health      derive the fleet's health from the metrics dumps
 *                 (DIR/metrics/*.json — workers and supervisor): one
 *                 row per process id with its newest incarnation's
 *                 state and current job, and job counts summed over
 *                 every incarnation, as one JSON document on stdout;
 *                 a row whose newest dump is older than 2x its
 *                 declared beat cadence is flagged stale
 *   --metrics     merge the fleet's metrics dumps (DIR/metrics/*.json,
 *                 one per process incarnation) into one fleet-wide
 *                 view: summed counters, max'd gauges, and per-phase
 *                 latency percentiles from the merged histograms;
 *                 with --since PRIOR.json (a saved aggregate), emit
 *                 per-counter deltas and per-second rates over the
 *                 wall interval between the two aggregates instead
 *   --timeline FP merge every event journal (DIR/events/*.jsonl) and
 *                 print the causal biography of one job: every event
 *                 whose subject is FP, in hybrid-logical-clock order.
 *                 Byte-stable given the same journals, whatever order
 *                 they are read in
 *   --events      filtered, paged query over the merged journals: one
 *                 line per event (`<hlc> <type> <worker> <job>
 *                 <detail>`), filterable by --type/--worker/--job and
 *                 an HLC window (--since-hlc/--until-hlc, inclusive);
 *                 --after KEY resumes strictly after a printed cursor
 *   --watch       live fleet dashboard: every interval, diff the
 *                 merged metrics dumps against the previous round
 *                 into rates (jobs/s, bytes/s, claim
 *                 conflicts/s) and count the live claims
 *   --summary-only
 *                 print only the deterministic summary JSON (no
 *                 table; what CI diffs between fresh and resumed
 *                 sweeps); with --status, print only the totals line
 *                 (counts stream off the record scalars — no job
 *                 table, no record bodies, no checkpoint reads)
 *
 * A mid-sweep kill is simulated through the fault plan, e.g.
 * TREEVQA_FAULT_PLAN='{"faults": [{"site": "checkpoint.written",
 * "action": "crash", "hit": 2}]}' SIGKILLs the run after the second
 * durable checkpoint across all jobs (shell status 137); rerunning
 * with the same --out resumes it.
 *
 * Exit codes: 0 success, 1 runtime error, 2 usage error, 3 a --status
 * probe found poisoned jobs or quarantined store lines (the CI gate).
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/event_log.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "dist/health.h"
#include "dist/store_merge.h"
#include "dist/store_tail.h"
#include "dist/work_claim.h"
#include "dist/worker_daemon.h"
#include "svc/job_scheduler.h"
#include "svc/sweep_dir.h"
#include "svc/sweep_index.h"

#include "cli_util.h"

using namespace treevqa;

namespace {

int
usage(const char *argv0, bool requested)
{
    std::fprintf(requested ? stdout : stderr,
                 "usage: %s SPEC.json [--out DIR] [--jobs N] [--fresh]\n"
                 "       [--print-specs] [--validate] [--summary-only]\n"
                 "       %s [SPEC.json] --status --out DIR [--limit N]"
                 " [--after FP]\n"
                 "       %s --health --out DIR\n"
                 "       %s --metrics --out DIR [--since PRIOR.json]\n"
                 "       %s --timeline FINGERPRINT --out DIR\n"
                 "       %s --events --out DIR [--type T] [--worker W]"
                 " [--job FP]\n"
                 "       [--since-hlc KEY] [--until-hlc KEY]"
                 " [--limit N] [--after KEY]\n"
                 "       %s --watch --out DIR [--watch-rounds N]\n"
                 "       [--watch-interval-ms MS]\n",
                 argv0, argv0, argv0, argv0, argv0, argv0, argv0);
    return requested ? 0 : 2;
}

/**
 * --status: one line per job — recorded / claimed (owner, lease) /
 * stale claim / checkpointed / pending — assembled read-only from the
 * sweep directory. Safe to run while a worker fleet is live.
 *
 * Built to scale: the record stores stream through the tail reader
 * (folded scalars only, never the trajectory/parameter bodies) and
 * the claim/checkpoint states come from one directory listing each —
 * not a peek-probe pair per job — so a 10^6-job status is O(jobs +
 * store bytes) with a small constant, and `--summary-only` skips even
 * the per-job table and checkpoint peeks, printing just the counts.
 *
 * Detail rows print in fingerprint order so `--after FP` (resume
 * strictly past a fingerprint) + `--limit N` page a huge sweep in
 * stable slices; the totals line always covers every job regardless
 * of the page. Returns 3 when the sweep holds poisoned jobs or
 * quarantined store lines — the machine-checkable "needs a human"
 * verdict — else 0.
 */
int
printStatus(const std::vector<ScenarioSpec> &specs,
            const std::string &dir, bool summaryOnly,
            const std::string &after, long limit)
{
    StoreTailReader tail(dir);
    tail.refresh();

    // A torn claim mid-write is invisible this probe.
    std::map<std::string, ClaimInfo> claims;
    for (const ClaimFile &claim : listClaims(sweepClaimDir(dir)))
        claims.emplace(claim.info.fingerprint, claim.info);
    // A job is checkpointed when a resume would find a generation:
    // `<fp>.json` or the rotated `<fp>.json.prev` (a kill between the
    // rotate and the atomic write leaves only the latter). A staging
    // copy alone restores nothing.
    std::set<std::string> checkpointed;
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(
             sweepCheckpointDir(dir), ec)) {
        const std::string name = entry.path().filename().string();
        const std::string fp = name.substr(0, name.find('.'));
        if (name == fp + ".json" || name == fp + ".json.prev")
            checkpointed.insert(fp);
    }

    // Detail rows walk the jobs in fingerprint order: a stable total
    // order the --after cursor can resume from, independent of the
    // spec file's ordering.
    std::vector<std::pair<std::string, const ScenarioSpec *>> ordered;
    ordered.reserve(specs.size());
    for (const ScenarioSpec &spec : specs)
        ordered.emplace_back(scenarioFingerprint(spec), &spec);
    std::sort(ordered.begin(), ordered.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });

    const std::int64_t now = unixTimeMs();
    std::size_t done = 0, failed = 0, timed_out = 0, poisoned = 0,
                running = 0, stale = 0, paused = 0, pending = 0;
    std::size_t shown = 0;
    if (!summaryOnly)
        std::printf("%-16s %-32s %-10s %s\n", "fingerprint", "job",
                    "state", "detail");
    for (const auto &[fp, spec_ptr] : ordered) {
        const ScenarioSpec &spec = *spec_ptr;
        // Counting covers every job; the detail row prints only
        // inside the requested page.
        const bool show = !summaryOnly && (after.empty() || fp > after)
            && (limit <= 0
                || shown < static_cast<std::size_t>(limit));
        char detail[160] = {0};
        const char *state = "pending";

        const JobResolution &r = tail.resolution(fp);
        const auto claim = claims.find(fp);
        const bool has_checkpoint = checkpointed.count(fp) > 0;
        // The checkpoint body is only opened for the jobs whose
        // detail line shows an iteration — never in summary mode.
        const auto iteration = [&]() -> int {
            if (!has_checkpoint)
                return 0;
            const std::optional<CheckpointPeek> peek =
                peekCheckpoint(sweepCheckpointPath(dir, fp));
            return peek ? peek->iteration : 0;
        };

        if (r.completed) {
            state = "done";
            ++done;
            if (show)
                std::snprintf(detail, sizeof(detail),
                              "energy=%.8f iters=%d", r.finalEnergy,
                              r.iterations);
        } else if (r.failed) {
            // A failure verdict: "poisoned" once it resolves under the
            // default fleet budget — a default fleet skips the job
            // durably; otherwise "timed-out" when the hung-job
            // watchdog wrote it, else plain "failed", both still
            // retryable.
            if (r.resolved(WorkerOptions{}.maxJobAttempts)) {
                state = "poisoned";
                ++poisoned;
            } else if (r.timedOut) {
                state = "timed-out";
                ++timed_out;
            } else {
                state = "failed";
                ++failed;
            }
            if (show)
                std::snprintf(detail, sizeof(detail),
                              "attempts=%d error=%.100s", r.attempts,
                              r.errorMessage.c_str());
        } else if (claim != claims.end()
                   && now <= claim->second.deadlineMs) {
            state = "running";
            ++running;
            if (show)
                std::snprintf(
                    detail, sizeof(detail),
                    "worker=%s lease=%lldms iter=%d/%d progress=%lld",
                    claim->second.owner.c_str(),
                    static_cast<long long>(claim->second.deadlineMs
                                           - now),
                    iteration(), spec.maxIterations,
                    static_cast<long long>(claim->second.progress));
        } else if (claim != claims.end()) {
            state = "stale";
            ++stale;
            if (show)
                std::snprintf(
                    detail, sizeof(detail),
                    "worker=%s expired %lldms ago iter=%d/%d "
                    "(reclaimable)",
                    claim->second.owner.c_str(),
                    static_cast<long long>(now
                                           - claim->second.deadlineMs),
                    iteration(), spec.maxIterations);
        } else if (has_checkpoint) {
            state = "paused";
            ++paused;
            if (show)
                std::snprintf(detail, sizeof(detail),
                              "checkpoint at iter %d/%d", iteration(),
                              spec.maxIterations);
        } else {
            ++pending;
        }
        if (show) {
            std::printf("%-16s %-32s %-10s %s\n", fp.c_str(),
                        spec.name.c_str(), state, detail);
            ++shown;
        }
    }
    const std::size_t quarantined = static_cast<std::size_t>(
        tail.counters().quarantinedLines);
    std::printf("%zu jobs: %zu done, %zu failed, %zu timed-out, "
                "%zu poisoned, %zu running, %zu stale, %zu paused, "
                "%zu pending; %zu quarantined line(s)\n",
                specs.size(), done, failed, timed_out, poisoned,
                running, stale, paused, pending, quarantined);
    return (poisoned > 0 || quarantined > 0) ? 3 : 0;
}

/**
 * --events: the merged, causally ordered journal, filtered and paged.
 * Rows go to stdout (`<hlc> <type> <worker> <job> <detail>`, one per
 * event, "-" for a subject-less job column); the read summary goes to
 * stderr so piped consumers see only rows. The HLC window is
 * inclusive on both ends; --after resumes strictly past a previously
 * printed cursor.
 */
int
runEvents(const std::string &dir, const std::string &typeFilter,
          const std::string &workerFilter,
          const std::string &jobFilter, const std::string &sinceKey,
          const std::string &untilKey, const std::string &afterKey,
          long limit)
{
    Hlc since, until, after;
    const bool has_since = !sinceKey.empty();
    const bool has_until = !untilKey.empty();
    const bool has_after = !afterKey.empty();
    if ((has_since && !parseHlcKey(sinceKey, since))
        || (has_until && !parseHlcKey(untilKey, until))
        || (has_after && !parseHlcKey(afterKey, after))) {
        std::fprintf(stderr,
                     "--since-hlc/--until-hlc/--after want "
                     "<wallMs>[.<counter>[@<origin>]]\n");
        return 2;
    }
    EventReadStats stats;
    const std::vector<SweepEvent> events =
        readSweepEvents(dir, &stats);
    std::size_t shown = 0;
    for (const SweepEvent &e : events) {
        if (!typeFilter.empty() && e.type != typeFilter)
            continue;
        if (!workerFilter.empty() && e.worker != workerFilter)
            continue;
        if (!jobFilter.empty() && e.job != jobFilter)
            continue;
        if (has_since && hlcLess(e.hlc, since))
            continue;
        if (has_until && hlcLess(until, e.hlc))
            continue;
        if (has_after && !hlcLess(after, e.hlc))
            continue;
        if (limit > 0 && shown >= static_cast<std::size_t>(limit))
            break;
        std::printf("%s %s %s %s %s\n", hlcKey(e.hlc).c_str(),
                    e.type.c_str(), e.worker.c_str(),
                    e.job.empty() ? "-" : e.job.c_str(),
                    e.detail.dump().c_str());
        ++shown;
    }
    std::fprintf(stderr,
                 "%zu of %zu event(s) from %zu journal(s), "
                 "%zu corrupt line(s)\n",
                 shown, stats.events, stats.files, stats.corruptLines);
    return 0;
}

/**
 * --metrics --since: per-counter deltas and per-second rates between
 * a saved aggregate (a prior `--metrics` stdout) and the current one.
 * The wall interval is the difference of the two aggregates' asOfMs
 * stamps (each the newest input dump's writtenMs), so the rates stay
 * a pure function of the dump files on disk.
 */
JsonValue
metricsDeltaJson(const JsonValue &prior, const JsonValue &current)
{
    std::int64_t prior_ms = 0, cur_ms = 0;
    jsonMaybe(prior, "asOfMs",
              [&](const JsonValue &v) { prior_ms = v.asInt(); });
    jsonMaybe(current, "asOfMs",
              [&](const JsonValue &v) { cur_ms = v.asInt(); });
    const double interval_s = cur_ms > prior_ms
        ? static_cast<double>(cur_ms - prior_ms) / 1e3
        : 0.0;

    std::map<std::string, std::uint64_t> before;
    jsonMaybe(prior, "counters", [&](const JsonValue &cs) {
        for (const auto &[name, v] : cs.asObject())
            before[name] = v.asUint();
    });

    JsonValue out = JsonValue::object();
    out.set("schemaVersion", JsonValue(std::int64_t{1}));
    out.set("sinceMs", JsonValue(prior_ms));
    out.set("asOfMs", JsonValue(cur_ms));
    out.set("intervalSeconds", JsonValue(interval_s));
    JsonValue counters = JsonValue::object();
    jsonMaybe(current, "counters", [&](const JsonValue &cs) {
        for (const auto &[name, v] : cs.asObject()) {
            const std::uint64_t now_total = v.asUint();
            const auto it = before.find(name);
            const std::uint64_t was =
                it == before.end() ? 0 : it->second;
            // A counter only regresses when a dump file vanished
            // between the two reads; clamp instead of wrapping.
            const std::uint64_t delta =
                now_total >= was ? now_total - was : 0;
            JsonValue row = JsonValue::object();
            row.set("total", JsonValue(now_total));
            row.set("delta", JsonValue(delta));
            row.set("perSec",
                    JsonValue(interval_s > 0.0
                                  ? static_cast<double>(delta)
                                      / interval_s
                                  : 0.0));
            counters.set(name, std::move(row));
        }
    });
    out.set("counters", std::move(counters));
    return out;
}

/** One --watch probe: the fleet counters a dashboard round diffs. */
struct WatchSample
{
    std::int64_t wallMs = 0;
    double jobsDone = 0;
    double bytesRead = 0;
    double conflicts = 0;
};

double
aggCounter(const JsonValue &agg, const char *name)
{
    double value = 0;
    jsonMaybe(agg, "counters", [&](const JsonValue &cs) {
        jsonMaybe(cs, name, [&](const JsonValue &v) {
            value = static_cast<double>(v.asUint());
        });
    });
    return value;
}

WatchSample
takeWatchSample(const std::string &dir)
{
    WatchSample s;
    s.wallMs = unixTimeMs();
    const JsonValue agg = aggregateMetricsJson(readMetricsDumps(dir));
    s.jobsDone = aggCounter(agg, "worker.jobs_completed");
    s.bytesRead = aggCounter(agg, "store.tail_bytes_read");
    // Attempts that did not acquire are exactly the claim conflicts
    // (another worker won the create race or held the lease).
    s.conflicts = aggCounter(agg, "worker.claim_attempts")
        - aggCounter(agg, "worker.claims_acquired");
    return s;
}

/** Live claims (unexpired leases): the running count. */
std::size_t
liveClaims(const std::string &dir, std::int64_t now)
{
    std::size_t live = 0;
    // A torn claim mid-write is invisible this probe.
    for (const ClaimFile &claim : listClaims(sweepClaimDir(dir)))
        live += now <= claim.info.deadlineMs;
    return live;
}

/**
 * --watch: a fixed-cadence dashboard over a live sweep directory.
 * Round 1 prints the absolute fleet totals (no previous round to
 * diff); every later round prints per-second rates — counter deltas
 * over the measured wall interval between the two probes. Both print
 * the number of live claims (queued jobs of a claimed batch count).
 * Pure reads throughout; safe to point at a sweep a fleet is actively
 * running.
 */
int
runWatch(const std::string &dir, long rounds, long intervalMs)
{
    WatchSample prev;
    for (long round = 1; rounds <= 0 || round <= rounds; ++round) {
        const WatchSample cur = takeWatchSample(dir);
        const std::size_t live = liveClaims(dir, cur.wallMs);
        if (round == 1) {
            std::printf("watch %ld: totals jobs=%.0f bytes=%.0f "
                        "conflicts=%.0f running=%zu\n",
                        round, cur.jobsDone, cur.bytesRead,
                        cur.conflicts, live);
        } else {
            const double dt = static_cast<double>(cur.wallMs
                                                  - prev.wallMs)
                / 1e3;
            const double safe_dt = dt > 0.0 ? dt : 1.0;
            std::printf(
                "watch %ld: jobs/s %.2f  bytes/s %.0f  "
                "conflicts/s %.2f  running=%zu\n",
                round, (cur.jobsDone - prev.jobsDone) / safe_dt,
                (cur.bytesRead - prev.bytesRead) / safe_dt,
                (cur.conflicts - prev.conflicts) / safe_dt, live);
        }
        std::fflush(stdout);
        prev = cur;
        if (rounds > 0 && round == rounds)
            break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(intervalMs));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string spec_path;
    std::string out_dir;
    long jobs = 0;
    bool fresh = false;
    bool print_specs = false;
    bool validate = false;
    bool status = false;
    bool health = false;
    bool metrics = false;
    bool summary_only = false;
    std::string timeline_fp;
    bool events = false;
    bool watch = false;
    std::string type_filter;
    std::string worker_filter;
    std::string job_filter;
    std::string since_hlc;
    std::string until_hlc;
    // --after: a fingerprint cursor for --status, an HLC-key cursor
    // for --events; both page "strictly past this".
    std::string after_cursor;
    long limit = 0;
    std::string since_file;
    long watch_rounds = 0; // 0 = run until interrupted
    long watch_interval_ms = 2000;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next_value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--out") {
            out_dir = next_value();
        } else if (arg == "--jobs") {
            if (!parsePositive(next_value(), jobs)) {
                std::fprintf(stderr,
                             "--jobs must be an integer >= 1\n");
                return 2;
            }
        } else if (arg == "--fresh") {
            fresh = true;
        } else if (arg == "--print-specs") {
            print_specs = true;
        } else if (arg == "--validate") {
            validate = true;
        } else if (arg == "--status") {
            status = true;
        } else if (arg == "--health") {
            health = true;
        } else if (arg == "--metrics") {
            metrics = true;
        } else if (arg == "--summary-only") {
            summary_only = true;
        } else if (arg == "--timeline") {
            timeline_fp = next_value();
        } else if (arg == "--events") {
            events = true;
        } else if (arg == "--watch") {
            watch = true;
        } else if (arg == "--type") {
            type_filter = next_value();
        } else if (arg == "--worker") {
            worker_filter = next_value();
        } else if (arg == "--job") {
            job_filter = next_value();
        } else if (arg == "--since-hlc") {
            since_hlc = next_value();
        } else if (arg == "--until-hlc") {
            until_hlc = next_value();
        } else if (arg == "--after") {
            after_cursor = next_value();
        } else if (arg == "--limit") {
            if (!parsePositive(next_value(), limit)) {
                std::fprintf(stderr,
                             "--limit must be an integer >= 1\n");
                return 2;
            }
        } else if (arg == "--since") {
            since_file = next_value();
        } else if (arg == "--watch-rounds") {
            if (!parseNonNegative(next_value(), watch_rounds)) {
                std::fprintf(stderr,
                             "--watch-rounds must be an integer >= 0 "
                             "(0 = forever)\n");
                return 2;
            }
        } else if (arg == "--watch-interval-ms") {
            if (!parsePositive(next_value(), watch_interval_ms)) {
                std::fprintf(stderr,
                             "--watch-interval-ms must be an integer "
                             ">= 1\n");
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0], true);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return usage(argv[0], false);
        } else if (spec_path.empty()) {
            spec_path = arg;
        } else {
            return usage(argv[0], false);
        }
    }
    if ((status || health || metrics || events || watch
         || !timeline_fp.empty())
        && out_dir.empty()) {
        std::fprintf(stderr,
                     "--status/--health/--metrics/--timeline/"
                     "--events/--watch need --out DIR\n");
        return 2;
    }
    if (!timeline_fp.empty()) {
        // Pure read of DIR/events/*.jsonl. Byte-stable for a given
        // set of journals whatever order they are read in — the
        // property the timeline-smoke CI job asserts.
        std::fputs(
            formatTimeline(readSweepEvents(out_dir), timeline_fp)
                .c_str(),
            stdout);
        return 0;
    }
    if (events)
        return runEvents(out_dir, type_filter, worker_filter,
                         job_filter, since_hlc, until_hlc,
                         after_cursor, limit);
    if (watch)
        return runWatch(out_dir, watch_rounds, watch_interval_ms);
    if (health) {
        // Pure read of DIR/metrics/*.json; needs no spec at all.
        const JsonValue doc = aggregateHealthJson(
            readMetricsDumps(out_dir), unixTimeMs());
        std::printf("%s\n", doc.dump(2).c_str());
        return 0;
    }
    if (metrics) {
        // Pure read of DIR/metrics/*.json. Every dump is one process
        // incarnation's registry snapshot; merging sums counters and
        // histograms across the whole fleet's lifetime, including
        // incarnations that were later SIGKILLed and replaced.
        const JsonValue doc =
            aggregateMetricsJson(readMetricsDumps(out_dir));
        if (!since_file.empty()) {
            // Delta view: rates since a saved aggregate.
            std::string prior_text;
            if (!readTextFile(since_file, prior_text)) {
                std::fprintf(stderr, "cannot read %s\n",
                             since_file.c_str());
                return 1;
            }
            try {
                const JsonValue prior =
                    JsonValue::parse(prior_text);
                std::printf(
                    "%s\n",
                    metricsDeltaJson(prior, doc).dump(2).c_str());
            } catch (const std::exception &e) {
                std::fprintf(stderr, "treevqa_run: --since: %s\n",
                             e.what());
                return 1;
            }
            return 0;
        }
        std::printf("%s\n", doc.dump(2).c_str());
        return 0;
    }
    // --status can take the job list from DIR/sweep.json; every other
    // mode needs the spec file.
    if (spec_path.empty() && !status)
        return usage(argv[0], false);

    try {
        std::string request_text;
        if (!spec_path.empty()) {
            if (!readTextFile(spec_path, request_text)) {
                std::fprintf(stderr, "cannot read %s\n",
                             spec_path.c_str());
                return 1;
            }
        } else if (!readTextFile(sweepSpecPath(out_dir),
                                 request_text)) {
            std::fprintf(stderr,
                         "no SPEC.json given and %s is absent\n",
                         sweepSpecPath(out_dir).c_str());
            return 1;
        }
        const std::vector<ScenarioSpec> specs =
            expandScenarios(JsonValue::parse(request_text));
        if (specs.empty()) {
            std::fprintf(stderr, "%s expands to zero scenarios\n",
                         spec_path.c_str());
            return 1;
        }

        if (status)
            return printStatus(specs, out_dir, summary_only,
                               after_cursor, limit);

        if (validate) {
            // Dry run: report what would be scheduled, catching the
            // errors a real run would hit (parse/expansion failures
            // throw above; duplicate fingerprints here) without
            // touching any output directory.
            std::map<std::string, std::string> seen;
            for (const ScenarioSpec &spec : specs) {
                const std::string fp = scenarioFingerprint(spec);
                const auto [it, inserted] = seen.emplace(fp, spec.name);
                if (!inserted) {
                    std::fprintf(stderr,
                                 "duplicate specs \"%s\" and \"%s\" "
                                 "(fingerprint %s)\n",
                                 it->second.c_str(), spec.name.c_str(),
                                 fp.c_str());
                    return 1;
                }
                std::printf("%s  %s\n", fp.c_str(), spec.name.c_str());
            }
            std::printf("%zu job(s), all valid\n", specs.size());
            return 0;
        }

        if (print_specs) {
            JsonValue list = JsonValue::array();
            for (const ScenarioSpec &spec : specs) {
                JsonValue entry = scenarioToJson(spec);
                entry.set("fingerprint",
                          JsonValue(scenarioFingerprint(spec)));
                list.push_back(std::move(entry));
            }
            std::printf("%s\n", list.dump(2).c_str());
            return 0;
        }

        if (jobs > 0)
            ThreadPool::global().resize(
                static_cast<std::size_t>(jobs));

        SchedulerConfig config;
        config.outDir = out_dir;
        if (fresh && !out_dir.empty()) {
            std::filesystem::remove(sweepStorePath(out_dir));
            std::filesystem::remove(sweepSummaryPath(out_dir));
            std::filesystem::remove_all(sweepCheckpointDir(out_dir));
            std::filesystem::remove_all(sweepClaimDir(out_dir));
            std::filesystem::remove_all(sweepShardDir(out_dir));
        }
        if (!out_dir.empty())
            // Worker processes (treevqa_worker --sweep-dir) can join
            // this sweep without being handed the spec file.
            seedSweepDir(out_dir, request_text, specs, "run");

        JobScheduler scheduler(config);
        const SweepResult sweep = scheduler.run(specs);

        const JsonValue summary = sweepSummaryJson(sweep.jobs);
        if (!out_dir.empty())
            // Atomic like every other writer of the shared directory:
            // a concurrent --status or compaction reader must never
            // see a torn summary.
            writeTextFileAtomic(sweepSummaryPath(out_dir),
                                summary.dump(2) + "\n");

        if (summary_only) {
            std::printf("%s\n", summary.dump(2).c_str());
        } else {
            std::printf("%s", sweepSummaryText(sweep.jobs).c_str());
            std::printf("(%zu executed, %zu resumed from store",
                        sweep.executed, sweep.skipped);
            if (!out_dir.empty())
                std::printf("; results in %s/results.jsonl",
                            out_dir.c_str());
            std::printf(")\n");
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "treevqa_run: %s\n", e.what());
        return 1;
    }
}
