#include "dist/health.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>

#include <unistd.h>

#include "common/event_log.h"

namespace treevqa {

namespace {

/** The registry counters a `--health` row sums its jobsCompleted,
 * jobsFailed and jobsTimedOut from, by role; null where the role has
 * no such count. */
std::array<const char *, 3>
jobCounterNames(const std::string &role)
{
    if (role == "supervisor")
        return {nullptr, "supervisor.crashes",
                "supervisor.watchdog_kills"};
    return {"worker.jobs_completed", "worker.jobs_poisoned",
            "worker.jobs_timed_out"};
}

constexpr const char *kJobFields[] = {"jobsCompleted", "jobsFailed",
                                      "jobsTimedOut"};

/** This process's resident set size in KiB; -1 when unavailable. */
std::int64_t
currentRssKb()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return -1;
    long long size_pages = 0, rss_pages = 0;
    const int fields = std::fscanf(f, "%lld %lld", &size_pages,
                                   &rss_pages);
    std::fclose(f);
    if (fields != 2)
        return -1;
    const long page = sysconf(_SC_PAGESIZE);
    if (page <= 0)
        return -1;
    return static_cast<std::int64_t>(rss_pages) * (page / 1024);
}

} // namespace

JsonValue
beatStatus(const WorkerHealth &health)
{
    JsonValue out = JsonValue::object();
    out.set("role", JsonValue(health.role));
    out.set("state", JsonValue(health.state));
    out.set("startedMs", JsonValue(health.startedMs));
    out.set("jobFingerprint", JsonValue(health.jobFingerprint));
    out.set("jobName", JsonValue(health.jobName));
    out.set("jobProgress", JsonValue(health.jobProgress));
    out.set("jobAttempt",
            JsonValue(static_cast<std::int64_t>(health.jobAttempt)));
    out.set("rssKb", JsonValue(currentRssKb()));
    out.set("flushIntervalMs", JsonValue(health.flushIntervalMs));
    out.set("hlc", hlcToJson(HlcClock::instance().tick()));
    return out;
}

JsonValue
aggregateHealthJson(
    const std::vector<std::pair<std::string, JsonValue>> &dumps,
    std::int64_t nowMs)
{
    /** One process id: its newest incarnation's row, and job counts
     * summed over every incarnation. */
    struct Process
    {
        std::int64_t writtenMs = 0;
        std::string state;
        JsonValue row;
        std::array<std::int64_t, 3> jobs{};
    };
    std::map<std::string, Process> processes;
    for (const auto &[token, dump] : dumps) {
        std::string id, state;
        std::int64_t written = 0;
        JsonValue row = JsonValue::object();
        std::array<std::int64_t, 3> jobs{};
        try {
            const JsonValue &status = dump.at("status");
            id = dump.at("id").asString();
            state = status.at("state").asString();
            written = dump.at("writtenMs").asInt();
            row.set("id", JsonValue(id));
            row.set("pid", JsonValue(dump.at("pid").asInt()));
            for (const auto &[key, value] : status.asObject())
                row.set(key, value);
            row.set("updatedMs", JsonValue(written));
            row.set("uptimeMs",
                    JsonValue(std::max<std::int64_t>(
                        0, written - status.at("startedMs").asInt())));
            // A dump older than 2× its writer's declared cadence means
            // the writer missed at least one beat: crashed, wedged, or
            // SIGKILLed.
            const std::int64_t stale_ms =
                std::max<std::int64_t>(0, nowMs - written);
            row.set("staleMs", JsonValue(stale_ms));
            row.set("staleSeconds",
                    JsonValue(static_cast<double>(stale_ms) / 1000.0));
            row.set("stale",
                    JsonValue(stale_ms
                              > 2 * status.at("flushIntervalMs").asInt()));
            const auto names =
                jobCounterNames(status.at("role").asString());
            const JsonValue &counters = dump.at("counters");
            for (std::size_t k = 0; k < jobs.size(); ++k)
                if (const JsonValue *v =
                        names[k] ? counters.find(names[k]) : nullptr)
                    jobs[k] = static_cast<std::int64_t>(v->asUint());
        } catch (const std::exception &) {
            // No status (not written by a beat) or malformed: skipped
            // like a torn dump.
            continue;
        }
        Process &process = processes[id];
        if (process.row.isNull() || written >= process.writtenMs) {
            process.writtenMs = written;
            process.state = state;
            process.row = std::move(row);
        }
        for (std::size_t k = 0; k < jobs.size(); ++k)
            process.jobs[k] += jobs[k];
    }

    JsonValue rows = JsonValue::array();
    JsonValue states = JsonValue::object();
    std::array<std::int64_t, 3> totals{};
    std::int64_t stale_workers = 0;
    for (auto &[id, process] : processes) {
        for (std::size_t k = 0; k < totals.size(); ++k) {
            process.row.set(kJobFields[k], JsonValue(process.jobs[k]));
            totals[k] += process.jobs[k];
        }
        if (process.row.at("stale").asBool())
            ++stale_workers;
        rows.push_back(std::move(process.row));
        const std::int64_t prior = states.contains(process.state)
            ? states.at(process.state).asInt()
            : 0;
        states.set(process.state, JsonValue(prior + 1));
    }

    JsonValue out = JsonValue::object();
    out.set("processes",
            JsonValue(static_cast<std::uint64_t>(processes.size())));
    out.set("staleWorkers", JsonValue(stale_workers));
    out.set("states", std::move(states));
    for (std::size_t k = 0; k < totals.size(); ++k)
        out.set(kJobFields[k], JsonValue(totals[k]));
    out.set("workers", std::move(rows));
    return out;
}

} // namespace treevqa
