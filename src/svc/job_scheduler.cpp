#include "svc/job_scheduler.h"

#include <chrono>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common/event_log.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "svc/group_commit.h"
#include "svc/sweep_dir.h"

namespace treevqa {

namespace {

struct SchedulerMetrics
{
    Counter &jobsExecuted;
    Counter &jobsSkipped;
    Histogram &jobNs;
    /** Root wall measurement of a drain with an output directory: ns
     * from run()'s start to its metrics dump. The calling-thread
     * phases below partition it. */
    Gauge &wallNs;
    Histogram &loadNs;
    Histogram &poolNs;
    Histogram &commitNs;
};

SchedulerMetrics &
schedulerMetrics()
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    static SchedulerMetrics m{
        reg.counter("scheduler.jobs_executed"),
        reg.counter("scheduler.jobs_skipped"),
        reg.histogram("scheduler.job_ns"),
        reg.gauge("scheduler.wall_ns"),
        reg.histogram("scheduler.load_ns"),
        reg.histogram("scheduler.pool_ns"),
        reg.histogram("scheduler.commit_ns")};
    return m;
}

} // namespace

JobScheduler::JobScheduler(SchedulerConfig config)
    : config_(std::move(config))
{
}

std::string
JobScheduler::resultStorePath() const
{
    if (config_.outDir.empty())
        return "";
    return sweepStorePath(config_.outDir);
}

std::string
JobScheduler::checkpointPathFor(const ScenarioSpec &spec) const
{
    return checkpointPath(scenarioFingerprint(spec));
}

std::string
JobScheduler::checkpointPath(const std::string &fingerprint) const
{
    if (config_.outDir.empty())
        return "";
    return sweepCheckpointPath(config_.outDir, fingerprint);
}

SweepResult
JobScheduler::run(const std::vector<ScenarioSpec> &specs)
{
    const auto start = std::chrono::steady_clock::now();
    // Fingerprints key checkpoints and store records; duplicates would
    // alias state across jobs, so reject them up front.
    std::map<std::string, std::string> seen;
    std::vector<std::string> fingerprints;
    fingerprints.reserve(specs.size());
    for (const ScenarioSpec &spec : specs) {
        std::string fp = scenarioFingerprint(spec);
        const auto [it, inserted] = seen.emplace(fp, spec.name);
        if (!inserted)
            throw std::invalid_argument(
                "scheduler: specs \"" + it->second + "\" and \""
                + spec.name + "\" are identical (fingerprint " + fp
                + "); de-duplicate the sweep");
        fingerprints.push_back(std::move(fp));
    }

    SweepResult sweep;
    sweep.jobs.resize(specs.size());

    TraceSpan load_span("scheduler.load", &schedulerMetrics().loadNs);
    std::unique_ptr<ResultStore> store;
    std::map<std::string, JobResult> recorded;
    if (!config_.outDir.empty()) {
        std::filesystem::create_directories(
            sweepCheckpointDir(config_.outDir));
        EventLog::instance().open(config_.outDir, "scheduler");
        store = std::make_unique<ResultStore>(resultStorePath());
        // A reused run directory may hold duplicate records for a
        // fingerprint; the dedup pass keeps the newest complete one
        // (warning once), so the skip decision is well-defined.
        for (JobResult &record : dedupeByFingerprint(store->load()))
            if (record.completed)
                recorded.emplace(record.fingerprint, std::move(record));
    }

    // Partition into skipped (already recorded) and pending jobs.
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto it = recorded.find(fingerprints[i]);
        if (it != recorded.end()) {
            sweep.jobs[i] = it->second;
            ++sweep.skipped;
        } else {
            pending.push_back(i);
        }
    }
    // A skipped job's checkpoint files are stale: a kill between its
    // commit's fsync and the retirement left them. The pending slots
    // are still empty records, which retire nothing.
    retireCheckpoints(config_.outDir, sweep.jobs);
    load_span.end();
    sweep.executed = pending.size();
    schedulerMetrics().jobsExecuted.inc(pending.size());
    schedulerMetrics().jobsSkipped.inc(sweep.skipped);

    // Group commit: finished records wait here, their checkpoints on
    // disk, until kGroupCommitBatch of them fill the buffer; the lane
    // that fills it commits the batch outside the lock while the other
    // lanes keep running jobs (the store's mutex orders the appends).
    std::mutex buffer_mutex;
    std::vector<JobResult> buffer;

    // One pool run is the whole scheduling loop: lanes claim jobs
    // dynamically, inner probe batches evaluate inline on the same
    // lanes. Job results are keyed by index, and each job's streams
    // derive from its spec, so concurrency and completion order
    // cannot change any record.
    std::exception_ptr failure;
    TraceSpan pool_span("scheduler.pool", &schedulerMetrics().poolNs);
    try {
        ThreadPool::global().run(pending.size(), [&](std::size_t p) {
            TRACE_SPAN_TIMED("scheduler.job", schedulerMetrics().jobNs);
            const std::size_t index = pending[p];
            ScenarioRunOptions options;
            options.checkpointPath = checkpointPath(fingerprints[index]);
            JobResult result = runScenario(specs[index], options);
            if (store && result.completed) {
                std::vector<JobResult> batch;
                {
                    std::lock_guard<std::mutex> lock(buffer_mutex);
                    buffer.push_back(result);
                    if (buffer.size()
                        >= static_cast<std::size_t>(kGroupCommitBatch))
                        batch.swap(buffer);
                }
                if (!batch.empty()) {
                    // Inside scheduler.pool: a span, not a phase.
                    TRACE_SPAN("scheduler.commit");
                    commitJobRecords(*store, config_.outDir, batch);
                }
            }
            sweep.jobs[index] = std::move(result);
        });
    } catch (...) {
        // A throwing job must not cost the records of the jobs that
        // finished: they commit below before the rethrow.
        failure = std::current_exception();
    }
    pool_span.end();

    if (store) {
        {
            TraceSpan span("scheduler.commit",
                           &schedulerMetrics().commitNs);
            commitJobRecords(*store, config_.outDir, buffer);
        }
        schedulerMetrics().wallNs.set(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
        writeMetricsSnapshot(config_.outDir, "scheduler",
                             sweepIncarnationToken("scheduler"));
    }
    // Armed spans that closed after the last commit's flush.
    EventLog::instance().flush();
    if (failure)
        std::rethrow_exception(failure);
    return sweep;
}

} // namespace treevqa
