#include "dist/worker_daemon.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <unistd.h>

#include "common/event_log.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "dist/backoff.h"
#include "dist/store_merge.h"
#include "svc/group_commit.h"
#include "svc/result_store.h"
#include "svc/sweep_dir.h"
#include "svc/sweep_index.h"

namespace treevqa {

namespace {

/** Registry instruments behind the worker report line and the
 * fleet-wide `--metrics` view; the per-run WorkerReport stays for
 * in-process callers (tests, benches) that need per-daemon numbers. */
struct WorkerMetrics
{
    Counter &scanRounds;
    Counter &claimAttempts;
    Counter &claimsAcquired;
    Counter &leasesReaped;
    Counter &claimsLost;
    Counter &failedAttempts;
    Counter &jobsCompleted;
    Counter &jobsResumed;
    Counter &jobsPoisoned;
    Counter &jobsTimedOut;
    Counter &jobsInterrupted;
    Counter &heartbeatRenewals;
    Gauge &specExpansions;
    /** Root wall measurement: ns since the drain loop started, stamped
     * at every beat; the loop-thread phases below partition it. */
    Gauge &wallNs;
    Histogram &scanNs;
    Histogram &claimNs;
    Histogram &jobNs;
    Histogram &recordNs;
    Histogram &beatNs;
    Histogram &idleNs;
    Histogram &renewNs;
};

WorkerMetrics &
workerMetrics()
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    static WorkerMetrics m{
        reg.counter("worker.scan_rounds"),
        reg.counter("worker.claim_attempts"),
        reg.counter("worker.claims_acquired"),
        reg.counter("worker.leases_reaped"),
        reg.counter("worker.claims_lost"),
        reg.counter("worker.failed_attempts"),
        reg.counter("worker.jobs_completed"),
        reg.counter("worker.jobs_resumed"),
        reg.counter("worker.jobs_poisoned"),
        reg.counter("worker.jobs_timed_out"),
        reg.counter("worker.jobs_interrupted"),
        reg.counter("worker.heartbeat_renewals"),
        reg.gauge("worker.spec_expansions"),
        reg.gauge("worker.wall_ns"),
        reg.histogram("worker.scan_ns"),
        reg.histogram("worker.claim_ns"),
        reg.histogram("worker.job_ns"),
        reg.histogram("worker.record_ns"),
        reg.histogram("worker.beat_ns"),
        reg.histogram("worker.idle_ns"),
        reg.histogram("worker.heartbeat_renew_ns")};
    return m;
}

/** FNV-1a of the worker id: a stable per-worker scan offset so a
 * fleet fans out over the pending jobs instead of stampeding the
 * first claim file. */
std::size_t
workerScanOffset(const std::string &workerId)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (const char c : workerId) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return static_cast<std::size_t>(hash);
}

/**
 * True when a worker other than `self` holds a live (not stale) claim
 * in the sweep. Once every job is resolved, such a claim means its
 * owner is still committing a job — a worker appends and only then
 * releases — so a compaction now would race that commit. Unreadable
 * or torn claims count as stale.
 */
bool
peerHoldsLiveClaim(const std::string &sweepDir, const std::string &self)
{
    for (const ClaimFile &claim : listClaims(sweepClaimDir(sweepDir)))
        if (claim.info.owner != self
            && !claimIsStale(claim.info, unixTimeMs(),
                             kClaimSkewGraceMs))
            return true;
    return false;
}

/** A resolved job's beat: back to idle with no current job. */
void
idleAfterJob(WorkerHealth &h)
{
    h.state = "idle";
    h.jobFingerprint.clear();
    h.jobName.clear();
    h.jobProgress = -1;
    h.jobAttempt = 0;
}

/** The heartbeat's renewal cadence: a third of the lease and, when
 * set, of the job timeout (watchdogs judge the progress stamps only
 * renewals write; a lease/3 cadence alone leaves a healthy batch's
 * stamps frozen for longer than a short timeout, with no claim yet
 * marked running), kept within [5 ms, 5 s]. */
std::int64_t
heartbeatMs(const WorkerOptions &options)
{
    std::int64_t ms = options.leaseMs / 3;
    if (options.jobTimeoutMs > 0)
        ms = std::min(ms, options.jobTimeoutMs / 3);
    return std::clamp<std::int64_t>(ms, 5, 5000);
}

} // namespace

std::int64_t
jitteredPollMs(std::int64_t pollMs, const std::string &workerId)
{
    // [0.75, 1.25] scaling from the same stable FNV-1a the scan
    // offset uses; integer arithmetic so every platform agrees.
    const std::uint64_t hash =
        static_cast<std::uint64_t>(workerScanOffset(workerId));
    const std::int64_t permille = 750 + static_cast<std::int64_t>(
                                      hash % 501); // 750..1250
    return std::max<std::int64_t>(1, pollMs * permille / 1000);
}

WorkerDaemon::WorkerDaemon(WorkerOptions options)
    : options_(std::move(options))
{
    if (options_.sweepDir.empty())
        throw std::invalid_argument("worker: sweepDir must be set");
    if (options_.workerId.empty())
        options_.workerId = localWorkerId();
    if (options_.workerId != sanitizeFileToken(options_.workerId))
        throw std::invalid_argument(
            "worker: worker id \"" + options_.workerId
            + "\" must contain only [A-Za-z0-9._-] (it names claim "
              "and shard files)");
    if (options_.leaseMs < 10)
        throw std::invalid_argument(
            "worker: leaseMs must be at least 10");
    if (options_.pollMs < 1)
        options_.pollMs = 1;
    if (options_.maxJobAttempts < 1)
        throw std::invalid_argument(
            "worker: maxJobAttempts must be at least 1");
    if (options_.retryBackoffMs < 0)
        options_.retryBackoffMs = 0;
    if (options_.jobTimeoutMs < 0)
        options_.jobTimeoutMs = 0;
    if (options_.claimBatch < 1)
        options_.claimBatch = 1;
    health_.startedMs = unixTimeMs();
    // Declared beat cadence (--health staleness detection): the
    // slower of the idle poll and the heartbeat interval, since both
    // paths beat.
    health_.flushIntervalMs =
        std::max(jitteredPollMs(options_.pollMs, options_.workerId),
                 heartbeatMs(options_));
}

void
WorkerDaemon::updateHealth(
    const std::function<void(WorkerHealth &)> &fn)
{
    std::lock_guard<std::mutex> lock(healthMutex_);
    fn(health_);
}

void
WorkerDaemon::beat(const std::function<void(WorkerHealth &)> &fn)
{
    // Heartbeat-thread beats are not loop time: they count toward
    // worker.heartbeat_renew instead of worker.beat.
    TraceSpan span("worker.beat",
                   std::this_thread::get_id() == loopThread_
                       ? &workerMetrics().beatNs
                       : nullptr);
    {
        // Status, registry snapshot and rename in one critical
        // section, so dumps land in snapshot order: a heartbeat beat
        // that snapshotted before a job's counter increment cannot
        // rename its older dump over that job's resolution beat, and
        // a SIGKILLed worker's dump counts every job it resolved.
        std::lock_guard<std::mutex> lock(healthMutex_);
        if (fn)
            fn(health_);
        workerMetrics().wallNs.set(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - runStart_)
                .count());
        // The per-pid file token keeps a restarted slot from erasing
        // its predecessor's totals.
        writeMetricsSnapshot(options_.sweepDir, options_.workerId,
                             sweepIncarnationToken(options_.workerId),
                             beatStatus(health_));
    }
    // The event journal rides the beat, so an unflushed process
    // loses at most one beat's events (armed trace spans included).
    EventLog::instance().flush();
}

void
WorkerDaemon::idle()
{
    beat([](WorkerHealth &h) { h.state = "idle"; });
    TRACE_SPAN_TIMED("worker.idle", workerMetrics().idleNs);
    std::this_thread::sleep_for(std::chrono::milliseconds(
        jitteredPollMs(options_.pollMs, options_.workerId)));
}

WorkerReport
WorkerDaemon::run()
{
    SweepIndex index(options_.sweepDir);
    return runLoop([&index]() {
        index.refresh();
        JobSet jobs;
        jobs.specs = &index.specs();
        jobs.fingerprints = &index.fingerprints();
        jobs.expansions = index.expansions();
        return jobs;
    });
}

WorkerReport
WorkerDaemon::run(const std::vector<ScenarioSpec> &specs)
{
    const std::vector<std::string> fingerprints =
        fingerprintSpecs(specs);
    return runLoop([&]() {
        JobSet jobs;
        jobs.specs = &specs;
        jobs.fingerprints = &fingerprints;
        jobs.expansions = 1;
        return jobs;
    });
}

WorkerReport
WorkerDaemon::runLoop(const std::function<JobSet()> &source)
{
    loopThread_ = std::this_thread::get_id();
    runStart_ = std::chrono::steady_clock::now();
    WorkerReport report;
    {
        TRACE_SPAN("worker.wall");
        StoreTailReader tail(options_.sweepDir);
        report = scanLoop(source, tail);
        report.storeBytesRead = tail.counters().bytesRead;
        report.fullRescans = tail.counters().fullRescans;
    }
    // Spans that close after the loop's last beat (this one and that
    // beat's own) reach the journal here.
    EventLog::instance().flush();
    return report;
}

WorkerReport
WorkerDaemon::scanLoop(const std::function<JobSet()> &source,
                       StoreTailReader &tail)
{
    const std::string &dir = options_.sweepDir;
    std::filesystem::create_directories(sweepClaimDir(dir));
    std::filesystem::create_directories(sweepCheckpointDir(dir));
    std::filesystem::create_directories(sweepShardDir(dir));
    EventLog::instance().open(dir, options_.workerId);

    WorkerReport report;
    const std::size_t scan_salt = workerScanOffset(options_.workerId);
    beat([](WorkerHealth &h) { h.state = "idle"; });

    // incrementalScan = false is the O(N)-per-round baseline: every
    // refresh re-reads the stores from offset 0.
    const auto refresh_view = [&] {
        if (!options_.incrementalScan)
            tail.invalidate();
        tail.refresh();
    };
    const auto is_pending = [&](const std::string &fingerprint) {
        return !poisoned_.count(fingerprint)
            && !tail.resolution(fingerprint)
                    .resolved(options_.maxJobAttempts);
    };
    // The pending set follows the tail reader's deltas; the O(N) walk
    // runs only for a new job-list generation or a view rebuilt from
    // offset 0.
    PendingJobs pending;
    std::optional<std::uint64_t> pending_for;
    // The drain proof is cached per job-list generation, so a
    // daemon-mode idle loop does not pay its O(N) load every poll.
    std::uint64_t drain_proven_for = 0;

    // The view is an optimization, never the drain proof: one load of
    // every store from offset 0 must resolve every job, by the same
    // JobResolution fold (dedupeByFingerprint stamps each survivor with
    // its folded attempts, so folding the survivor alone reproduces
    // the verdict), the same budget and the same local poison guard.
    // When a compaction follows, that load is the compaction's own, so
    // the records are decoded once for both; otherwise a view this
    // scan built from offset 0 already is that load.
    const auto prove_drained = [&](const JobSet &jobs, bool compacting) {
        const DrainProof resolves_every_job =
            [&](const std::vector<JobResult> &records) {
                std::unordered_map<std::string, const JobResult *> by_fp;
                for (const JobResult &record : records)
                    by_fp.emplace(record.fingerprint, &record);
                for (const std::string &fp : *jobs.fingerprints) {
                    if (poisoned_.count(fp))
                        continue;
                    const auto it = by_fp.find(fp);
                    if (it == by_fp.end())
                        return false;
                    JobResolution resolution;
                    resolution.fold(*it->second);
                    if (!resolution.resolved(options_.maxJobAttempts))
                        return false;
                }
                return true;
            };
        if (compacting && !sweepStoreCompacted(dir)) {
            beat([](WorkerHealth &h) { h.state = "draining"; });
            return compactSweepStore(dir, /*removeMergedShards=*/true,
                                     resolves_every_job)
                .written;
        }
        TRACE_SPAN_TIMED("worker.scan", workerMetrics().scanNs);
        return tail.lastRefreshWasFull()
            || resolves_every_job(loadMergedRecords(dir));
    };

    while (!stop_.load()) {
        const JobSet jobs = source();
        const std::vector<std::string> &fingerprints =
            *jobs.fingerprints;
        report.specExpansions = jobs.expansions;
        ++report.scanRounds;
        workerMetrics().scanRounds.inc();
        workerMetrics().specExpansions.set(
            static_cast<std::int64_t>(jobs.expansions));

        {
            TRACE_SPAN_TIMED("worker.scan", workerMetrics().scanNs);
            refresh_view();
            const StoreTailReader::Delta delta = tail.takeDelta();
            if (delta.rebuilt || pending_for != jobs.expansions) {
                pending.rebuild(fingerprints, is_pending);
                pending_for = jobs.expansions;
            } else {
                pending.update(delta.changed, is_pending);
            }
        }

        if (pending.empty()) {
            // Prove and compact only once no peer is mid-commit (see
            // peerHoldsLiveClaim): its append or release must not
            // race the shard removal.
            const bool compacting = options_.drainAndExit
                && options_.mergeOnDrain && !stop_.load();
            if (compacting
                && peerHoldsLiveClaim(dir, options_.workerId)) {
                idle();
                continue;
            }
            if (drain_proven_for != jobs.expansions) {
                if (!prove_drained(jobs, compacting)) {
                    // A job the view resolved is unresolved on disk
                    // (the view over-resolved, or lost a race): nothing
                    // was written; rebuild the view and keep scanning.
                    tail.invalidate();
                    continue;
                }
                drain_proven_for = jobs.expansions;
            }
            report.drained = true;
            report.merged = compacting;
            if (options_.drainAndExit)
                break;
            idle();
            continue;
        }
        report.drained = false;

        // Gather up to claimBatch leases in one walk over the pending
        // rotation.
        std::size_t batch_target = static_cast<std::size_t>(
            std::max(1, options_.claimBatch));
        if (options_.maxJobs > 0) {
            const std::size_t limit =
                static_cast<std::size_t>(options_.maxJobs);
            batch_target = std::min(
                batch_target,
                limit > report.completed ? limit - report.completed
                                         : std::size_t{1});
        }
        std::vector<BatchSlot> batch;
        TraceSpan claim_span("worker.claim",
                             &workerMetrics().claimNs);
        const std::size_t offset = scan_salt % pending.size();
        for (std::size_t k = 0; k < pending.size() && !stop_.load();
             ++k) {
            const std::size_t index =
                pending.at((k + offset) % pending.size());
            bool reaped = false;
            ++report.claimAttempts;
            workerMetrics().claimAttempts.inc();
            std::optional<WorkClaim> claim = WorkClaim::tryAcquire(
                sweepClaimDir(dir), fingerprints[index],
                options_.workerId, options_.leaseMs, &reaped);
            if (!claim)
                continue; // live lease elsewhere, or takeover lost
            workerMetrics().claimsAcquired.inc();
            if (reaped) {
                ++report.reapedLeases;
                workerMetrics().leasesReaped.inc();
                // The takeover observed the dead owner's claim stamp,
                // so this event orders after its last heartbeat.
                EventLog::instance().emit(event_type::kLeaseReaped,
                                          fingerprints[index]);
            }
            EventLog::instance().emit(event_type::kLeaseAcquired,
                                      fingerprints[index]);
            BatchSlot slot;
            slot.index = index;
            slot.claim = std::move(*claim);
            batch.push_back(std::move(slot));
            if (batch.size() >= batch_target)
                break;
        }
        EventLog::instance().flush();
        const bool claimed_any = !batch.empty();

        // Jobs may have been recorded (or their failure budget spent)
        // between our scan and these claims; re-check once under the
        // held claims — claims serialize failure writers per
        // fingerprint, so the attempt counts read here cannot be
        // raced past the budget while we hold the leases.
        if (claimed_any) {
            refresh_view();
            std::vector<BatchSlot> live;
            for (BatchSlot &slot : batch) {
                const std::string &fp = fingerprints[slot.index];
                const JobResolution &r = tail.resolution(fp);
                if (poisoned_.count(fp) != 0
                    || r.resolved(options_.maxJobAttempts)) {
                    slot.claim.release();
                    continue;
                }
                slot.priorAttempts = r.priorAttempts();
                live.push_back(std::move(slot));
            }
            batch = std::move(live);
        }
        claim_span.end();
        if (batch.empty()) {
            // Nothing claimable (every pending job is leased to a live
            // worker): wait for completions or lease expiry. Claims
            // that all resolved elsewhere mean progress: rescan now.
            if (!claimed_any && !stop_.load())
                idle();
            continue;
        }

        const JobOutcome outcome =
            runClaimedBatch(jobs, batch, tail, report);
        // The batch's own verdict changes reach the view through
        // foldOwnAppend's delta, but a local poison verdict whose fold
        // was declined (a torn append) does not: re-judge the batch.
        std::vector<std::string> batch_fps;
        for (const BatchSlot &slot : batch)
            batch_fps.push_back(fingerprints[slot.index]);
        pending.update(batch_fps, is_pending);
        if (outcome == JobOutcome::Interrupted) {
            // Graceful stop: checkpoint sealed, claims released.
            beat([](WorkerHealth &h) { h.state = "stopped"; });
            return report;
        }
        if (options_.maxJobs > 0
            && report.completed
                >= static_cast<std::size_t>(options_.maxJobs))
            return report;
    }

    beat([](WorkerHealth &h) { h.state = "stopped"; });
    EventLog::instance().flush();
    return report;
}

WorkerDaemon::JobOutcome
WorkerDaemon::runClaimedBatch(const JobSet &jobs,
                              std::vector<BatchSlot> &batch,
                              StoreTailReader &tail,
                              WorkerReport &report)
{
    const std::vector<ScenarioSpec> &specs = *jobs.specs;
    const std::vector<std::string> &fingerprints = *jobs.fingerprints;

    // Live progress surface: the runner stores the optimizer
    // iteration here; the heartbeat derives the batch tick from it
    // (and publishes it in the health status), and the in-process
    // watchdog reads it for stall detection.
    std::atomic<std::int64_t> progress_counter{-1};

    // Serializes every WorkClaim touch (renew/confirm/release) and the
    // started/done/lost flags between this thread and the heartbeat.
    std::mutex batch_mutex;

    // Hands back the leases of the queued jobs the loop never started.
    // The loop sets `started` under batch_mutex, so a slot is either
    // run or released here, never both.
    const auto release_unstarted = [&] {
        std::lock_guard<std::mutex> lock(batch_mutex);
        for (BatchSlot &slot : batch)
            if (!slot.started && !slot.done) {
                slot.claim.release();
                slot.done = true;
            }
    };

    // Heartbeat: every held lease is renewed round-robin on one timer
    // thread (checkpoint cadence is spec-controlled and may be slower
    // than the lease) — queued, running and completed-but-uncommitted
    // jobs alike. Renewals stamp a batch-wide monotonic tick that
    // advances whenever the running job's progress moves — so queued
    // claims of a live worker keep advancing for the supervisor's
    // external watchdog, and only a genuine wedge freezes the whole
    // batch — and mark the running job's claim, so that watchdog
    // charges the job that hung. It is also the in-process hung-job
    // watchdog: when the progress stamp freezes past jobTimeoutMs it
    // releases the queued jobs' leases at once, so idle peers can
    // claim them, and stops renewing — deliberately letting the
    // wedged job's lease expire so a reaper can take it — because a
    // wedged runScenario cannot be interrupted from inside. A
    // jthread, so an exception escaping the job loop below (a record
    // append that fails) stops and joins it on unwind — destroying a
    // joinable std::thread would terminate the worker — and the held
    // leases expire for reapers, as after a crash.
    std::mutex hb_mutex;
    std::condition_variable_any hb_cv;
    std::atomic<bool> hb_timed_out{false};
    std::int64_t batch_tick = 0;
    const auto hb_interval =
        std::chrono::milliseconds(heartbeatMs(options_));
    std::jthread heartbeat([&](std::stop_token stop) {
        std::int64_t last_progress = progress_counter.load();
        auto last_advance = std::chrono::steady_clock::now();
        std::unique_lock<std::mutex> lock(hb_mutex);
        while (!hb_cv.wait_for(lock, stop, hb_interval, [&] {
            return stop.stop_requested();
        })) {
            const std::int64_t now_progress = progress_counter.load();
            if (now_progress != last_progress) {
                last_progress = now_progress;
                last_advance = std::chrono::steady_clock::now();
                ++batch_tick;
            } else if (options_.jobTimeoutMs > 0
                       && std::chrono::steady_clock::now()
                               - last_advance
                           > std::chrono::milliseconds(
                               options_.jobTimeoutMs)) {
                hb_timed_out.store(true);
                try {
                    release_unstarted();
                } catch (const std::exception &) {
                    // Unreleased leases expire for reapers.
                }
                return; // abandon the remaining leases for the reapers
            }
            // A renewal I/O failure (ENOSPC, network-filesystem
            // hiccup) must degrade to "lease lost" — the recoverable
            // outcome this thread exists to report — not escape the
            // thread and terminate the process.
            bool any_live = false;
            {
                TraceSpan renew_span("worker.heartbeat_renew",
                                     &workerMetrics().renewNs);
                std::lock_guard<std::mutex> batch_lock(batch_mutex);
                for (BatchSlot &slot : batch) {
                    if (slot.done || slot.lost)
                        continue;
                    const std::string &fp =
                        fingerprints[slot.index];
                    try {
                        if (slot.claim.renew(batch_tick,
                                             slot.running)) {
                            workerMetrics().heartbeatRenewals.inc();
                            JsonValue detail = JsonValue::object();
                            detail.set("tick",
                                       JsonValue(batch_tick));
                            EventLog::instance().emit(
                                event_type::kLeaseRenewed, fp,
                                std::move(detail));
                            any_live = true;
                            continue;
                        }
                    } catch (const std::exception &) {
                    }
                    slot.lost = true;
                    EventLog::instance().emit(
                        event_type::kLeaseLost, fp);
                }
            }
            if (!any_live)
                return;
            beat([&](WorkerHealth &h) { h.jobProgress = now_progress; });
        }
    });
    const auto join_heartbeat = [&] {
        heartbeat.request_stop();
        heartbeat.join();
    };
    const auto slot_lost = [&](const BatchSlot &slot) {
        std::lock_guard<std::mutex> lock(batch_mutex);
        return slot.lost;
    };
    const auto release_undone = [&] {
        std::lock_guard<std::mutex> lock(batch_mutex);
        for (BatchSlot &slot : batch) {
            if (!slot.done)
                slot.claim.release();
            slot.done = true;
        }
    };
    // Caller holds batch_mutex.
    const auto drop_lost = [&](BatchSlot &slot) {
        ++report.lostClaims;
        workerMetrics().claimsLost.inc();
        slot.lost = true;
        slot.claim.release();
        slot.done = true;
    };

    // The store buffer: resolved records wait here, their leases still
    // held, until one commit makes them durable together.
    struct Buffered
    {
        BatchSlot *slot;
        JobResult record;
    };
    std::vector<Buffered> buffered;
    // The batch commit, timed as worker.record (the beat apart):
    // confirm ownership, the shared group commit (svc/group_commit.h:
    // one append with one fsync, checkpoint retirement, events, one
    // journal flush), beat, and only then release — a claim release
    // publishes its record to the fleet, so no claim is released
    // before its record is durable.
    const auto commit = [&] {
        if (buffered.empty())
            return;
        TraceSpan record_span("worker.record",
                              &workerMetrics().recordNs);
        // Append only while provably still the owner; a lost lease
        // means the reaper will record the (bit-identical) result
        // instead. With more than 2/3 of the lease left no reaper can
        // have taken it, so a read suffices; closer to the deadline
        // the check renews. An I/O failure here degrades to "lease
        // lost" rather than killing the worker with claims held.
        std::vector<JobResult> records;
        std::vector<BatchSlot *> slots;
        {
            std::lock_guard<std::mutex> lock(batch_mutex);
            for (Buffered &entry : buffered) {
                BatchSlot &slot = *entry.slot;
                bool owner = !slot.lost;
                if (owner) {
                    try {
                        owner = 3 * (slot.claim.info().deadlineMs
                                     - unixTimeMs())
                                > 2 * options_.leaseMs
                            ? slot.claim.confirm()
                            : slot.claim.renew();
                    } catch (const std::exception &) {
                        owner = false;
                    }
                }
                if (!owner) {
                    drop_lost(slot);
                    continue;
                }
                records.push_back(std::move(entry.record));
                slots.push_back(&slot);
            }
        }
        buffered.clear();
        if (records.empty())
            return;
        // Poison quarantine: the record carries exactly the attempts
        // *this* claim session spent, so the merged view's accumulated
        // count stays a true fleet-wide total; the job is resolved
        // locally. Whether the rest of the fleet agrees depends on the
        // accumulated count reaching the budget.
        const auto poisoned = [&](std::size_t i) {
            const JobResult &record = records[i];
            const int attempts = slots[i]->priorAttempts + record.attempts;
            poisoned_.insert(record.fingerprint);
            ++report.poisoned;
            workerMetrics().jobsPoisoned.inc();
            JsonValue detail = JsonValue::object();
            detail.set("attempts",
                       JsonValue(static_cast<std::int64_t>(attempts)));
            detail.set("error", JsonValue(record.errorMessage));
            EventLog::instance().emit(event_type::kJobPoisoned,
                                      record.fingerprint,
                                      std::move(detail));
            std::fprintf(stderr,
                         "treevqa: worker %s: quarantined poison job %s "
                         "after %d/%d fleet-wide attempts (%s)\n",
                         options_.workerId.c_str(),
                         record.spec.name.c_str(), attempts,
                         options_.maxJobAttempts,
                         record.errorMessage.c_str());
        };
        const std::string shard_path =
            sweepShardPath(options_.sweepDir, options_.workerId);
        ResultStore shard(shard_path);
        const StoreAppend appended =
            commitJobRecords(shard, options_.sweepDir, records, poisoned);
        // The fsync has returned: fold the batch into the view from
        // memory, so the tail reader never decodes this shard's bytes
        // (unless the append tore or sealed a torn tail).
        tail.foldOwnAppend(shard_path, records, appended.bytes);
        // Only the records that landed count; a torn one reruns.
        for (std::size_t i = 0; i < appended.landed; ++i) {
            const JobResult &record = records[i];
            if (!record.completed)
                continue;
            ++report.completed;
            workerMetrics().jobsCompleted.inc();
            if (record.resumed) {
                ++report.resumed;
                workerMetrics().jobsResumed.inc();
            }
        }
        record_span.end();
        // The commit beat keeps merged --metrics and --health exact
        // across a SIGKILL: the dump counts these jobs before their
        // claims are released and the next batch starts.
        beat(idleAfterJob);
        TraceSpan release_span("worker.record",
                               &workerMetrics().recordNs);
        std::lock_guard<std::mutex> lock(batch_mutex);
        for (BatchSlot *slot : slots) {
            slot->claim.release();
            slot->done = true;
        }
    };

    JobOutcome outcome = JobOutcome::Completed;
    for (BatchSlot &slot : batch) {
        if (stop_.load()) {
            // Stop requested between jobs: nothing to seal for the
            // queued jobs — commit what finished, hand the rest back.
            outcome = JobOutcome::Interrupted;
            break;
        }
        {
            std::lock_guard<std::mutex> lock(batch_mutex);
            if (slot.done)
                break; // the watchdog released the queued leases
            if (slot.lost) {
                drop_lost(slot);
                continue;
            }
            slot.started = true;
            slot.running = true;
        }
        const ScenarioSpec &spec = specs[slot.index];
        const std::string &fingerprint = fingerprints[slot.index];

        ScenarioRunOptions run_options;
        run_options.checkpointPath =
            sweepCheckpointPath(options_.sweepDir, fingerprint);
        run_options.progressCounter = &progress_counter;
        run_options.shouldStop = [this] { return stop_.load(); };

        TraceSpan job_span("worker.job", &workerMetrics().jobNs);
        // In memory only: the next beat (heartbeat, or the commit)
        // publishes the running row.
        updateHealth([&](WorkerHealth &h) {
            h.state = "running";
            h.jobFingerprint = fingerprint;
            h.jobName = spec.name;
            h.jobProgress = -1;
            h.jobAttempt = 1;
        });
        {
            // Flushed before the job runs: a SIGKILL mid-job must
            // still leave the claim on the record for --timeline.
            JsonValue detail = JsonValue::object();
            detail.set("name", JsonValue(spec.name));
            detail.set("priorAttempts",
                       JsonValue(static_cast<std::int64_t>(
                           slot.priorAttempts)));
            EventLog::instance().emit(event_type::kJobClaimed,
                                      fingerprint,
                                      std::move(detail));
            EventLog::instance().flush();
        }
        progress_counter.store(-1); // fresh stall window per job

        // Retry budget: a throwing job (defective spec, transient I/O
        // on its checkpoint) is retried with exponential backoff
        // while the heartbeat keeps the leases; after the budget it
        // degrades to a poison-quarantine record instead of killing
        // the worker — the sweep drains around the job, and the
        // failure is on the record. Only the budget *remaining* after
        // prior recorded fleet failures is spent here, so the whole
        // fleet stays within maxJobAttempts.
        const int attempt_budget =
            std::max(1, options_.maxJobAttempts - slot.priorAttempts);
        JobResult result;
        std::string last_error;
        bool job_ok = false;
        int attempts_made = 0;
        for (int attempt = 1; attempt <= attempt_budget; ++attempt) {
            if (slot_lost(slot) || hb_timed_out.load())
                break; // lease gone or watchdog fired: stop burning
            ++attempts_made;
            updateHealth(
                [&](WorkerHealth &h) { h.jobAttempt = attempt; });
            try {
                if (const FaultHit hit = FAULT_POINT("worker.job"))
                    if (hit.action == FaultAction::FailErrno)
                        throw std::runtime_error(
                            "injected job failure: "
                            + std::string(std::strerror(hit.err)));
                result = options_.jobRunner
                    ? options_.jobRunner(spec, run_options)
                    : runScenario(spec, run_options);
                job_ok = true;
                break;
            } catch (const std::exception &e) {
                last_error = e.what();
            } catch (...) {
                last_error = "unknown error";
            }
            ++report.failedAttempts;
            workerMetrics().failedAttempts.inc();
            {
                JsonValue detail = JsonValue::object();
                detail.set("attempt",
                           JsonValue(static_cast<std::int64_t>(
                               slot.priorAttempts + attempt)));
                detail.set("error", JsonValue(last_error));
                EventLog::instance().emit(event_type::kJobFailed,
                                          fingerprint,
                                          std::move(detail));
            }
            std::fprintf(stderr,
                         "treevqa: worker %s: job %s attempt %d/%d "
                         "failed: %s\n",
                         options_.workerId.c_str(), spec.name.c_str(),
                         slot.priorAttempts + attempt,
                         options_.maxJobAttempts, last_error.c_str());
            if (attempt < attempt_budget
                && options_.retryBackoffMs > 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    cappedBackoffMs(options_.retryBackoffMs, attempt)));
        }
        job_span.end();
        {
            std::lock_guard<std::mutex> lock(batch_mutex);
            slot.running = false;
        }

        if (hb_timed_out.load())
            break; // common timeout unwind below

        if (job_ok && !result.completed) {
            // Graceful stop, the only way the runner returns
            // unfinished: it sealed a checkpoint at the current
            // iteration; commit what finished and release every other
            // lease so the next claimant can resume immediately.
            ++report.interrupted;
            workerMetrics().jobsInterrupted.inc();
            outcome = JobOutcome::Interrupted;
            break;
        }
        if (job_ok) {
            buffered.push_back({&slot, std::move(result)});
            continue;
        }
        // A failed (poisoned) record is committed at once, with the
        // buffer ahead of it: the fleet-wide poison budget must never
        // under-count the attempts this worker has spent.
        JobResult poison;
        poison.spec = spec;
        poison.fingerprint = fingerprint;
        poison.failed = true;
        poison.errorMessage = last_error;
        poison.attempts = attempts_made;
        buffered.push_back({&slot, std::move(poison)});
        commit();
    }

    // One commit on every exit: batch end, graceful stop, interrupted
    // job, or timeout (whatever a wedged job eventually returned is
    // dropped; the jobs finished before it still commit if owned).
    commit();
    join_heartbeat();
    if (hb_timed_out.load()) {
        // The watchdog released the queued leases and abandoned the
        // wedged job's while runScenario was wedged; that job belongs
        // to whoever reaps the expired claim (or to the supervisor's
        // SIGKILL, whichever lands first).
        ++report.timedOut;
        workerMetrics().jobsTimedOut.inc();
        {
            JsonValue detail = JsonValue::object();
            detail.set("timeoutMs",
                       JsonValue(options_.jobTimeoutMs));
            for (const BatchSlot &slot : batch)
                if (!slot.done)
                    EventLog::instance().emit(
                        event_type::kJobTimedOut,
                        fingerprints[slot.index], detail);
            EventLog::instance().flush();
        }
        release_undone();
        beat(idleAfterJob);
        std::fprintf(stderr,
                     "treevqa: worker %s: job hung (no progress for "
                     "%lld ms); batch leases abandoned\n",
                     options_.workerId.c_str(),
                     static_cast<long long>(options_.jobTimeoutMs));
        return JobOutcome::TimedOut;
    }
    // Hand back any leases we never got to.
    release_undone();
    return outcome;
}

} // namespace treevqa
