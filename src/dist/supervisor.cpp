#include "dist/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/event_log.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "dist/backoff.h"
#include "dist/health.h"
#include "dist/work_claim.h"
#include "dist/store_merge.h"
#include "svc/result_store.h"
#include "svc/sweep_dir.h"

namespace treevqa {

namespace {

struct SupervisorMetrics
{
    Counter &spawns;
    Counter &crashes;
    Counter &restarts;
    Counter &watchdogKills;
    Counter &timeoutRecords;
    Histogram &spawnNs;
    Histogram &watchdogScanNs;
};

SupervisorMetrics &
supervisorMetrics()
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    static SupervisorMetrics m{
        reg.counter("supervisor.spawns"),
        reg.counter("supervisor.crashes"),
        reg.counter("supervisor.restarts"),
        reg.counter("supervisor.watchdog_kills"),
        reg.counter("supervisor.timeout_records"),
        reg.histogram("supervisor.spawn_ns"),
        reg.histogram("supervisor.watchdog_scan_ns")};
    return m;
}

/** Supervise-loop beat cadence: one metrics dump (with the fleet
 * status embedded) at most this often. */
constexpr std::int64_t kBeatIntervalMs = 500;

std::int64_t
steadyMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Human tag for an abnormal waitpid status. */
std::string
describeExit(int status)
{
    if (WIFSIGNALED(status))
        return "killed by signal "
            + std::to_string(WTERMSIG(status));
    if (WIFEXITED(status))
        return "exited with status "
            + std::to_string(WEXITSTATUS(status));
    return "unknown wait status " + std::to_string(status);
}

} // namespace

Supervisor::Supervisor(SupervisorOptions options)
    : options_(std::move(options)), tail_(options_.sweepDir)
{
    if (options_.sweepDir.empty())
        throw std::invalid_argument("supervisor: sweepDir must be set");
    if (options_.workerCommand.empty())
        throw std::invalid_argument(
            "supervisor: workerCommand must be set");
    if (options_.workers < 1)
        throw std::invalid_argument(
            "supervisor: workers must be at least 1");
    if (options_.idPrefix.empty()
        || options_.idPrefix != sanitizeFileToken(options_.idPrefix))
        throw std::invalid_argument(
            "supervisor: idPrefix must be a filesystem token");
    if (options_.crashLoopBudget < 1)
        throw std::invalid_argument(
            "supervisor: crashLoopBudget must be at least 1");
    if (options_.maxJobAttempts < 1)
        throw std::invalid_argument(
            "supervisor: maxJobAttempts must be at least 1");
    if (options_.restartBackoffMs < 0)
        options_.restartBackoffMs = 0;
    if (options_.pollMs < 1)
        options_.pollMs = 1;
    if (options_.gracePeriodMs < 0)
        options_.gracePeriodMs = 0;
    if (options_.jobTimeoutMs < 0)
        options_.jobTimeoutMs = 0;
    slots_.resize(static_cast<std::size_t>(options_.workers));
    for (std::size_t k = 0; k < slots_.size(); ++k)
        slots_[k].id = options_.idPrefix + "-w" + std::to_string(k);
}

std::int64_t
Supervisor::restartBackoff(Slot &slot) const
{
    return cappedBackoffMs(
        std::max<std::int64_t>(1, options_.restartBackoffMs),
        ++slot.failures);
}

bool
Supervisor::spawnSlot(Slot &slot, std::int64_t nowMs)
{
    // The span closes in the parent; the child side of the fork execs
    // (or _exits) without ever running the destructor.
    TRACE_SPAN_TIMED("supervisor.spawn",
                     supervisorMetrics().spawnNs);
    if (const FaultHit hit = FAULT_POINT("supervisor.spawn"))
        if (hit.action == FaultAction::FailErrno) {
            std::fprintf(stderr,
                         "treevqa: supervisor: spawn of %s failed "
                         "(injected: %s)\n",
                         slot.id.c_str(), std::strerror(hit.err));
            // Treated like an instant crash: backoff, circuit breaker.
            slot.crashTimesMs.push_back(nowMs);
            slot.notBeforeMs = nowMs + restartBackoff(slot);
            return false;
        }

    std::vector<std::string> argv_strings = options_.workerCommand;
    argv_strings.push_back("--worker-id");
    argv_strings.push_back(slot.id);

    const pid_t pid = fork();
    if (pid < 0) {
        std::fprintf(stderr,
                     "treevqa: supervisor: fork for %s failed: %s\n",
                     slot.id.c_str(), std::strerror(errno));
        slot.notBeforeMs = nowMs
            + std::max<std::int64_t>(1, options_.restartBackoffMs);
        return false;
    }
    if (pid == 0) {
        // Child: detach from the supervisor's stdio so a fleet of
        // workers doesn't interleave on one terminal, then exec.
        if (options_.redirectChildLogs) {
            const std::string log =
                sweepLogPath(options_.sweepDir, slot.id);
            const int fd = ::open(log.c_str(),
                                  O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                ::dup2(fd, STDOUT_FILENO);
                ::dup2(fd, STDERR_FILENO);
                if (fd > STDERR_FILENO)
                    ::close(fd);
            }
        }
        std::vector<char *> argv;
        argv.reserve(argv_strings.size() + 1);
        for (std::string &arg : argv_strings)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        ::execvp(argv[0], argv.data());
        std::fprintf(stderr,
                     "treevqa: supervisor child: exec %s failed: %s\n",
                     argv[0], std::strerror(errno));
        ::_exit(127);
    }
    slot.pid = pid;
    ++report_.spawns;
    supervisorMetrics().spawns.inc();
    {
        JsonValue detail = JsonValue::object();
        detail.set("slot", JsonValue(slot.id));
        detail.set("pid",
                   JsonValue(static_cast<std::int64_t>(pid)));
        slot.lastHlc = EventLog::instance().emit(
            event_type::kFleetSpawn, "", std::move(detail));
    }
    return true;
}

/** Delete claim files owned by `workerId`; returns the fingerprints
 * freed so callers can journal the reap per job. Only called once the
 * owning process is provably dead (reaped or SIGKILLed + reaped), so
 * the lock has no live writer and waiting out the lease would only
 * delay the job's next claimant. */
static std::vector<std::string>
removeClaimsOwnedBy(const std::string &sweepDir,
                    const std::string &workerId)
{
    std::vector<std::string> freed;
    // A torn claim is not listed: it is left for the reap protocol.
    for (const ClaimFile &claim : listClaims(sweepClaimDir(sweepDir))) {
        if (claim.info.owner != workerId)
            continue;
        // Merge the dead owner's last stamp before journaling the
        // reap, so the reap orders after its final heartbeat.
        HlcClock::instance().observe(claim.info.hlc);
        if (std::remove(claim.path.c_str()) == 0)
            freed.push_back(claim.info.fingerprint);
    }
    return freed;
}

/** Journal one lease.reaped per claim `removeClaimsOwnedBy` freed. */
static void
journalReapedClaims(const std::vector<std::string> &freed,
                    const std::string &deadWorkerId)
{
    for (const std::string &fingerprint : freed) {
        JsonValue detail = JsonValue::object();
        detail.set("deadOwner", JsonValue(deadWorkerId));
        EventLog::instance().emit(event_type::kLeaseReaped,
                                  fingerprint, std::move(detail));
    }
}

void
Supervisor::reapSlots(std::int64_t nowMs, bool /*drained*/)
{
    for (Slot &slot : slots_) {
        if (slot.pid < 0)
            continue;
        int status = 0;
        const pid_t reaped = ::waitpid(slot.pid, &status, WNOHANG);
        if (reaped != slot.pid)
            continue;
        slot.pid = -1;
        const std::vector<std::string> freed =
            removeClaimsOwnedBy(options_.sweepDir, slot.id);

        const bool clean =
            WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (!clean) {
            // The crash is journaled once per interrupted job (so
            // --timeline shows it under the job's fingerprint) plus
            // once slot-wide when the child held nothing.
            JsonValue detail = JsonValue::object();
            detail.set("slot", JsonValue(slot.id));
            detail.set("exit", JsonValue(describeExit(status)));
            if (freed.empty())
                slot.lastHlc = EventLog::instance().emit(
                    event_type::kFleetCrash, "", detail);
            for (const std::string &fingerprint : freed)
                slot.lastHlc = EventLog::instance().emit(
                    event_type::kFleetCrash, fingerprint, detail);
        }
        journalReapedClaims(freed, slot.id);
        if (clean) {
            // Benign: the worker finished its bounded work (or saw
            // the sweep drained). Restart promptly with the base
            // backoff; the drained check above us ends the loop when
            // there is truly nothing left.
            slot.failures = 0;
            slot.notBeforeMs = nowMs
                + std::max<std::int64_t>(1, options_.restartBackoffMs);
            ++slot.restarts;
            ++report_.restarts;
            supervisorMetrics().restarts.inc();
            {
                JsonValue detail = JsonValue::object();
                detail.set("slot", JsonValue(slot.id));
                detail.set("exit", JsonValue(std::string("clean")));
                slot.lastHlc = EventLog::instance().emit(
                    event_type::kFleetRestart, "",
                    std::move(detail));
            }
            continue;
        }

        ++slot.crashes;
        ++report_.crashes;
        supervisorMetrics().crashes.inc();
        std::fprintf(stderr, "treevqa: supervisor: %s %s\n",
                     slot.id.c_str(), describeExit(status).c_str());
        slot.crashTimesMs.push_back(nowMs);
        slot.crashTimesMs.erase(
            std::remove_if(slot.crashTimesMs.begin(),
                           slot.crashTimesMs.end(),
                           [&](std::int64_t t) {
                               return nowMs - t
                                   > options_.crashLoopWindowMs;
                           }),
            slot.crashTimesMs.end());
        if (static_cast<int>(slot.crashTimesMs.size())
            >= options_.crashLoopBudget) {
            slot.retired = true;
            slot.retireReason = std::to_string(slot.crashTimesMs.size())
                + " abnormal exits within "
                + std::to_string(options_.crashLoopWindowMs)
                + " ms (last: " + describeExit(status) + ")";
            // Listed in slot order, not exit order, so the report does
            // not depend on which child happened to be reaped first.
            const auto earlier_retired = std::count_if(
                slots_.begin(), slots_.begin() + (&slot - slots_.data()),
                [](const Slot &s) { return s.retired; });
            report_.retiredSlots.insert(
                report_.retiredSlots.begin() + earlier_retired,
                slot.id + ": " + slot.retireReason);
            std::fprintf(stderr,
                         "treevqa: supervisor: retiring slot %s (%s); "
                         "fleet continues degraded\n",
                         slot.id.c_str(), slot.retireReason.c_str());
            {
                JsonValue detail = JsonValue::object();
                detail.set("slot", JsonValue(slot.id));
                detail.set("reason",
                           JsonValue(slot.retireReason));
                slot.lastHlc = EventLog::instance().emit(
                    event_type::kFleetSlotRetired, "",
                    std::move(detail));
            }
            continue;
        }
        const std::int64_t backoff_ms = restartBackoff(slot);
        slot.notBeforeMs = nowMs + backoff_ms;
        ++slot.restarts;
        ++report_.restarts;
        supervisorMetrics().restarts.inc();
        {
            JsonValue detail = JsonValue::object();
            detail.set("slot", JsonValue(slot.id));
            detail.set("backoffMs", JsonValue(backoff_ms));
            slot.lastHlc = EventLog::instance().emit(
                event_type::kFleetRestart, "", std::move(detail));
        }
    }
}

void
Supervisor::watchdogScan(std::int64_t nowMs)
{
    if (options_.jobTimeoutMs <= 0)
        return;
    TRACE_SPAN_TIMED("supervisor.watchdog_scan",
                     supervisorMetrics().watchdogScanNs);
    std::set<std::string> live_claims;
    // Torn claims are not listed: they are the reap protocol's
    // problem.
    const std::vector<ClaimFile> claims =
        listClaims(sweepClaimDir(options_.sweepDir));
    for (const ClaimFile &claim : claims) {
        const ClaimInfo &info = claim.info;
        HlcClock::instance().observe(info.hlc);
        Slot *owner = nullptr;
        for (Slot &slot : slots_)
            if (slot.pid >= 0 && slot.id == info.owner)
                owner = &slot;
        if (!owner)
            continue; // not one of our (live) children
        live_claims.insert(info.fingerprint);

        auto watch = std::find_if(
            watches_.begin(), watches_.end(),
            [&](const std::pair<std::string, ProgressWatch> &w) {
                return w.first == info.fingerprint;
            });
        if (watch == watches_.end()) {
            watches_.push_back(
                {info.fingerprint, {info.progress, nowMs}});
            continue;
        }
        if (watch->second.progress != info.progress) {
            watch->second.progress = info.progress;
            watch->second.sinceMs = nowMs;
            continue;
        }
        if (nowMs - watch->second.sinceMs <= options_.jobTimeoutMs)
            continue;

        // Hung: the claim exists (its owner's heartbeat may even be
        // renewing it) but the progress stamp froze past the timeout.
        // Kill the owner — a wedged child cannot save itself — record
        // the failed attempt against the fleet-wide budget, and free
        // the claim for the next claimant. Every claim of the owner's
        // batch froze together, so the charge goes to the one its
        // heartbeat marked running, or to none: a queued or finished
        // job never hung.
        std::string hung;
        for (const ClaimFile &held : claims)
            if (held.info.owner == owner->id && held.info.running)
                hung = held.info.fingerprint;
        std::fprintf(stderr,
                     "treevqa: supervisor: %s hung on job %s (no "
                     "progress for %lld ms); killing pid %d\n",
                     owner->id.c_str(),
                     hung.empty() ? "(none running)" : hung.c_str(),
                     static_cast<long long>(nowMs
                                            - watch->second.sinceMs),
                     static_cast<int>(owner->pid));
        ::kill(owner->pid, SIGKILL);
        int status = 0;
        ::waitpid(owner->pid, &status, 0);
        owner->pid = -1;
        ++report_.watchdogKills;
        supervisorMetrics().watchdogKills.inc();
        {
            JsonValue detail = JsonValue::object();
            detail.set("slot", JsonValue(owner->id));
            detail.set("stalledMs",
                       JsonValue(nowMs - watch->second.sinceMs));
            owner->lastHlc = EventLog::instance().emit(
                event_type::kFleetWatchdogKill, hung,
                std::move(detail));
        }
        // A watchdog kill is the job's fault, not the slot's: restart
        // with the base backoff, no crash-window entry.
        owner->failures = 0;
        owner->notBeforeMs = nowMs
            + std::max<std::int64_t>(1, options_.restartBackoffMs);
        ++owner->restarts;
        ++report_.restarts;
        journalReapedClaims(
            removeClaimsOwnedBy(options_.sweepDir, owner->id),
            owner->id);

        const ScenarioSpec *spec = index_ && !hung.empty()
            ? index_->byFingerprint(hung)
            : nullptr;
        if (spec) {
            // Rare (one per kill), so read every store from offset 0.
            tail_.invalidate();
            tail_.refresh();
        }
        if (spec
            && !tail_.resolution(hung).resolved(
                options_.maxJobAttempts)) {
            JobResult timeout;
            timeout.spec = *spec;
            timeout.fingerprint = hung;
            timeout.failed = true;
            timeout.timedOut = true;
            timeout.attempts = 1;
            timeout.errorMessage = "hung job killed by supervisor "
                                   "watchdog (no progress for "
                + std::to_string(options_.jobTimeoutMs) + " ms)";
            ResultStore shard(sweepShardPath(
                options_.sweepDir, options_.idPrefix + "-supervisor"));
            try {
                shard.append(timeout);
                ++report_.timeoutRecords;
                supervisorMetrics().timeoutRecords.inc();
            } catch (const std::exception &e) {
                std::fprintf(stderr,
                             "treevqa: supervisor: cannot record "
                             "timeout for %s: %s\n",
                             hung.c_str(), e.what());
            }
        }
        watches_.erase(watch);
    }
    // Forget watches for claims that no longer exist (job finished or
    // claim moved on) so a fingerprint reclaimed later starts a fresh
    // stall clock.
    watches_.erase(
        std::remove_if(
            watches_.begin(), watches_.end(),
            [&](const std::pair<std::string, ProgressWatch> &w) {
                return live_claims.count(w.first) == 0;
            }),
        watches_.end());
}

void
Supervisor::shutdownCascade()
{
    bool any = false;
    for (Slot &slot : slots_)
        if (slot.pid >= 0) {
            ::kill(slot.pid, SIGTERM);
            any = true;
        }
    if (!any)
        return;
    const std::int64_t deadline = steadyMs() + options_.gracePeriodMs;
    while (steadyMs() < deadline) {
        any = false;
        for (Slot &slot : slots_) {
            if (slot.pid < 0)
                continue;
            int status = 0;
            if (::waitpid(slot.pid, &status, WNOHANG) == slot.pid) {
                journalReapedClaims(
                    removeClaimsOwnedBy(options_.sweepDir, slot.id),
                    slot.id);
                slot.pid = -1;
            } else {
                any = true;
            }
        }
        if (!any)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    for (Slot &slot : slots_) {
        if (slot.pid < 0)
            continue;
        std::fprintf(stderr,
                     "treevqa: supervisor: %s ignored SIGTERM for "
                     "%lld ms; escalating to SIGKILL\n",
                     slot.id.c_str(),
                     static_cast<long long>(options_.gracePeriodMs));
        ::kill(slot.pid, SIGKILL);
        int status = 0;
        ::waitpid(slot.pid, &status, 0);
        journalReapedClaims(
            removeClaimsOwnedBy(options_.sweepDir, slot.id),
            slot.id);
        slot.pid = -1;
    }
}

bool
Supervisor::sweepDrained()
{
    if (!index_)
        index_ = std::make_unique<SweepIndex>(options_.sweepDir);
    try {
        index_->refresh();
    } catch (const std::exception &) {
        return false; // no sweep.json yet: nothing to drain
    }
    const auto all_resolved = [&] {
        for (const std::string &fp : index_->fingerprints())
            if (!tail_.resolution(fp).resolved(options_.maxJobAttempts))
                return false;
        return true;
    };
    tail_.refresh();
    if (!all_resolved())
        return false;
    // The incremental view is advisory (a racing compaction window can
    // transiently over-count attempts); confirm a drained-looking tail
    // with one read from offset 0 per job-list generation before
    // tearing the fleet down.
    if (drainConfirmedFor_ == index_->expansions())
        return true;
    tail_.invalidate();
    tail_.refresh();
    if (!all_resolved())
        return false;
    drainConfirmedFor_ = index_->expansions();
    return true;
}

JsonValue
Supervisor::slotsJson() const
{
    JsonValue out = JsonValue::array();
    for (const Slot &slot : slots_) {
        JsonValue s = JsonValue::object();
        s.set("id", JsonValue(slot.id));
        s.set("pid",
              JsonValue(static_cast<std::int64_t>(
                  slot.pid < 0 ? -1 : slot.pid)));
        s.set("state", JsonValue(std::string(
                           slot.retired      ? "retired"
                               : slot.pid >= 0 ? "running"
                                               : "restarting")));
        s.set("restarts",
              JsonValue(static_cast<std::int64_t>(slot.restarts)));
        s.set("crashes",
              JsonValue(static_cast<std::int64_t>(slot.crashes)));
        s.set("retireReason", JsonValue(slot.retireReason));
        if (!slot.lastHlc.empty())
            s.set("hlc", JsonValue(hlcKey(slot.lastHlc)));
        out.push_back(std::move(s));
    }
    return out;
}

void
Supervisor::beat(const std::string &state)
{
    WorkerHealth h;
    h.role = "supervisor";
    h.state = state;
    h.startedMs = startedUnixMs_;
    h.flushIntervalMs = kBeatIntervalMs;
    JsonValue status = beatStatus(h);
    status.set("slots", slotsJson());
    status.set("drained", JsonValue(report_.drained));
    status.set("retiredSlots",
               JsonValue(static_cast<std::uint64_t>(
                   report_.retiredSlots.size())));
    writeMetricsSnapshot(options_.sweepDir, "supervisor",
                         sweepIncarnationToken("supervisor"), status);
    EventLog::instance().flush();
}

SupervisorReport
Supervisor::run()
{
    const std::string &dir = options_.sweepDir;
    std::filesystem::create_directories(sweepClaimDir(dir));
    std::filesystem::create_directories(sweepCheckpointDir(dir));
    std::filesystem::create_directories(sweepShardDir(dir));
    if (options_.redirectChildLogs)
        std::filesystem::create_directories(sweepLogDir(dir));
    EventLog::instance().open(dir, "supervisor");
    startedUnixMs_ = unixTimeMs();

    std::int64_t last_beat_ms = 0;
    beat("supervising");

    while (true) {
        const std::int64_t now = steadyMs();
        reapSlots(now, false);

        if (stop_.load()) {
            report_.stoppedEarly = true;
            shutdownCascade();
            break;
        }
        if (sweepDrained()) {
            report_.drained = true;
            shutdownCascade();
            break;
        }

        bool all_retired = true;
        for (Slot &slot : slots_) {
            if (slot.retired)
                continue;
            all_retired = false;
            if (slot.pid < 0 && now >= slot.notBeforeMs)
                spawnSlot(slot, now);
        }
        if (all_retired) {
            std::fprintf(stderr,
                         "treevqa: supervisor: every slot retired "
                         "before the sweep drained; giving up\n");
            report_.stoppedEarly = true;
            break;
        }

        watchdogScan(now);
        EventLog::instance().flush(); // no-op when nothing happened

        if (now - last_beat_ms >= kBeatIntervalMs) {
            beat("supervising");
            last_beat_ms = now;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.pollMs));
    }

    if (report_.drained && options_.mergeOnDrain) {
        // Usually a no-op: a drainAndExit worker merged already, and
        // then nothing is rewritten. Otherwise it folds the
        // supervisor's own timeout shard into the canonical store.
        if (!sweepStoreCompacted(dir))
            compactSweepStore(dir, /*removeMergedShards=*/true);
        report_.merged = true;
    }
    beat(report_.drained ? "stopped" : "shutting-down");
    return report_;
}

} // namespace treevqa
