/**
 * @file
 * Tests for the self-healing fleet layer (src/dist/supervisor.h,
 * src/dist/health.h): spawn/reap/restart of worker children, the
 * crash-loop circuit breaker, the SIGTERM→SIGKILL shutdown cascade,
 * the frozen-progress hung-job watchdog with its budget-counted
 * timedOut records, and the `--health` view derived from the metrics
 * dumps. Worker
 * children are shell stubs here — the end-to-end drills with real
 * treevqa_worker fleets live in tools/treevqa_chaos.cpp and CI.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <initializer_list>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "common/file_util.h"
#include "common/metrics.h"
#include "dist/backoff.h"
#include "dist/health.h"
#include "dist/store_merge.h"
#include "dist/supervisor.h"
#include "dist/work_claim.h"
#include "svc/result_store.h"
#include "svc/scenario_runner.h"
#include "svc/scenario_spec.h"
#include "svc/sweep_dir.h"

namespace treevqa {
namespace {

std::filesystem::path
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / ("sup_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** A tiny, fast scenario (4-qubit TFIM, 1-layer HEA, SPSA). */
ScenarioSpec
tinySpec(const std::string &name, double field)
{
    ScenarioSpec spec;
    spec.name = name;
    spec.problem = "tfim";
    spec.size = 4;
    spec.field = field;
    spec.ansatz = "hea";
    spec.layers = 1;
    spec.engine.shotsPerTerm = 256;
    spec.maxIterations = 12;
    spec.seed = 99;
    spec.checkpointInterval = 4;
    return spec;
}

/** Seed `<dir>/sweep.json` with one tiny job; returns its spec. */
ScenarioSpec
seedSweep(const std::string &dir, const std::string &name)
{
    const ScenarioSpec spec = tinySpec(name, 1.0);
    writeTextFileAtomic(sweepSpecPath(dir),
                        scenarioToJson(spec).dump(2) + "\n");
    return spec;
}

/** Fast supervise-loop defaults for shell-stub fleets. */
SupervisorOptions
stubOptions(const std::string &dir,
            const std::vector<std::string> &command)
{
    SupervisorOptions options;
    options.sweepDir = dir;
    options.workerCommand = command;
    options.workers = 1;
    options.restartBackoffMs = 1;
    options.pollMs = 5;
    options.gracePeriodMs = 500;
    options.mergeOnDrain = false;
    return options;
}

/** True when the `--health` view derived from `dir`'s metrics dumps
 * has a supervisor row carrying the slot table. */
bool
hasSupervisorRow(const std::string &dir)
{
    const JsonValue doc =
        aggregateHealthJson(readMetricsDumps(dir), unixTimeMs());
    for (const JsonValue &row : doc.at("workers").asArray())
        if (row.at("role").asString() == "supervisor")
            return row.at("slots").isArray();
    return false;
}

std::int64_t
elapsedMsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
}

// ----------------------------------------------------------- validation

TEST(Backoff, DoublesFromTheBaseAndStopsAtTheCapForEveryAttempt)
{
    // Worker retries and supervisor restarts both wait
    // cappedBackoffMs. Every attempt count must be defined: an
    // uncapped `base << (attempt - 1)` is undefined from attempt 64
    // (a UBSan build traps) and sleeps for hours long before that.
    for (const std::int64_t base : {0, 1, 50, 200, 7000}) {
        const std::int64_t cap = std::max(base, kMaxBackoffMs);
        std::int64_t previous = 0;
        for (int attempt = 1; attempt <= 100; ++attempt) {
            const std::int64_t wait = cappedBackoffMs(base, attempt);
            if (attempt == 1)
                EXPECT_EQ(wait, base);
            else
                EXPECT_EQ(wait, std::min(previous * 2, cap))
                    << "base " << base << " attempt " << attempt;
            previous = wait;
        }
    }
    EXPECT_EQ(cappedBackoffMs(50, 7), 3200);
    EXPECT_EQ(cappedBackoffMs(50, 8), kMaxBackoffMs);
    EXPECT_EQ(cappedBackoffMs(50, 100), kMaxBackoffMs);
}

TEST(Supervisor, RejectsBadOptions)
{
    SupervisorOptions no_dir;
    no_dir.workerCommand = {"/bin/true"};
    EXPECT_THROW(Supervisor{no_dir}, std::invalid_argument);

    SupervisorOptions no_command;
    no_command.sweepDir = scratchDir("no_command").string();
    EXPECT_THROW(Supervisor{no_command}, std::invalid_argument);

    SupervisorOptions bad_prefix;
    bad_prefix.sweepDir = scratchDir("bad_prefix").string();
    bad_prefix.workerCommand = {"/bin/true"};
    bad_prefix.idPrefix = "no/slashes";
    EXPECT_THROW(Supervisor{bad_prefix}, std::invalid_argument);

    SupervisorOptions zero_workers;
    zero_workers.sweepDir = scratchDir("zero_workers").string();
    zero_workers.workerCommand = {"/bin/true"};
    zero_workers.workers = 0;
    EXPECT_THROW(Supervisor{zero_workers}, std::invalid_argument);
}

// ------------------------------------------------------- supervise loop

TEST(Supervisor, AlreadyDrainedSweepStopsWithoutSpawning)
{
    const auto dir = scratchDir("drained");
    const ScenarioSpec spec = seedSweep(dir.string(), "done_job");
    const JobResult done = runScenario(spec);
    ResultStore(sweepStorePath(dir.string())).append(done);

    Supervisor supervisor(stubOptions(dir.string(), {"/bin/true"}));
    const SupervisorReport report = supervisor.run();
    EXPECT_TRUE(report.drained);
    EXPECT_FALSE(report.stoppedEarly);
    EXPECT_EQ(report.spawns, 0u);
    EXPECT_EQ(report.crashes, 0u);
    // The health surface reflects the run even without children.
    EXPECT_TRUE(hasSupervisorRow(dir.string()));
    EXPECT_FALSE(std::filesystem::exists(dir / "health"));
}

TEST(Supervisor, CrashLoopRetiresEverySlotAndGivesUp)
{
    const auto dir = scratchDir("crash_loop");
    seedSweep(dir.string(), "never_runs");

    // Every child life fails instantly; the circuit breaker must
    // retire both slots after 2 abnormal exits each instead of
    // restarting forever, and the supervisor gives up undrained.
    SupervisorOptions options = stubOptions(
        dir.string(), {"/bin/sh", "-c", "exit 3"});
    options.workers = 2;
    options.crashLoopBudget = 2;
    options.crashLoopWindowMs = 60000;
    Supervisor supervisor(std::move(options));
    const SupervisorReport report = supervisor.run();

    EXPECT_FALSE(report.drained);
    EXPECT_TRUE(report.stoppedEarly);
    ASSERT_EQ(report.retiredSlots.size(), 2u);
    EXPECT_NE(report.retiredSlots[0].find("sup-w0"), std::string::npos);
    EXPECT_NE(report.retiredSlots[1].find("sup-w1"), std::string::npos);
    EXPECT_GE(report.crashes, 4u);
    EXPECT_GE(report.spawns, 4u);
}

TEST(Supervisor, ShutdownCascadeEscalatesToSigkill)
{
    const auto dir = scratchDir("cascade");
    seedSweep(dir.string(), "never_drains");

    // The child ignores SIGTERM, so the cascade must SIGKILL it after
    // the grace window — but not sooner.
    SupervisorOptions options = stubOptions(
        dir.string(),
        {"/bin/sh", "-c",
         "trap '' TERM; while :; do sleep 0.01; done"});
    options.gracePeriodMs = 200;
    Supervisor supervisor(std::move(options));

    std::thread stopper([&supervisor] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        supervisor.requestStop();
    });
    const auto t0 = std::chrono::steady_clock::now();
    const SupervisorReport report = supervisor.run();
    stopper.join();

    EXPECT_TRUE(report.stoppedEarly);
    EXPECT_FALSE(report.drained);
    EXPECT_GE(report.spawns, 1u);
    // Stop at ~150ms + full 200ms grace burned by the stubborn child.
    EXPECT_GE(elapsedMsSince(t0), 300);
    // run() returned only after the straggler was reaped, and its
    // last beat still reached the health view.
    EXPECT_TRUE(hasSupervisorRow(dir.string()));
}

TEST(Supervisor, CooperativeChildrenExitWithinTheGraceWindow)
{
    const auto dir = scratchDir("cascade_soft");
    seedSweep(dir.string(), "never_drains");

    SupervisorOptions options = stubOptions(
        dir.string(),
        {"/bin/sh", "-c",
         "trap 'exit 0' TERM; while :; do sleep 0.01; done"});
    options.gracePeriodMs = 5000; // never reached by a polite child
    Supervisor supervisor(std::move(options));

    std::thread stopper([&supervisor] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        supervisor.requestStop();
    });
    const auto t0 = std::chrono::steady_clock::now();
    const SupervisorReport report = supervisor.run();
    stopper.join();

    EXPECT_TRUE(report.stoppedEarly);
    // SIGTERM sufficed: nowhere near the 5 s escalation deadline.
    EXPECT_LT(elapsedMsSince(t0), 3000);
}

TEST(Supervisor, WatchdogKillsHungClaimAndRecordsTimeout)
{
    const auto dir = scratchDir("watchdog");
    const ScenarioSpec spec = seedSweep(dir.string(), "hung_job");
    const std::string fp = scenarioFingerprint(spec);

    // Simulate a wedged worker: its claim exists under the slot's id,
    // marked running, with a frozen progress stamp, while the child
    // process itself — a sleeper stub — stays alive. The
    // live-lease/dead-work signature the watchdog exists to catch.
    std::filesystem::create_directories(sweepClaimDir(dir.string()));
    auto claim = WorkClaim::tryAcquire(sweepClaimDir(dir.string()), fp,
                                       "sup-w0", 600000);
    ASSERT_TRUE(claim.has_value());
    ASSERT_TRUE(claim->renew(0, /*running=*/true));

    SupervisorOptions options = stubOptions(
        dir.string(), {"/bin/sh", "-c", "while :; do sleep 0.01; done"});
    options.jobTimeoutMs = 120;
    // One timedOut attempt exhausts the budget, so the job resolves
    // as poisoned and the supervisor drains right after the kill.
    options.maxJobAttempts = 1;
    Supervisor supervisor(std::move(options));
    const SupervisorReport report = supervisor.run();

    EXPECT_TRUE(report.drained);
    EXPECT_EQ(report.watchdogKills, 1u);
    EXPECT_EQ(report.timeoutRecords, 1u);
    // The dead child's claim was removed so the job is retryable
    // immediately (here: already resolved).
    EXPECT_FALSE(
        WorkClaim::peek(sweepClaimDir(dir.string()), fp).has_value());

    const std::vector<JobResult> records =
        loadMergedRecords(dir.string());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].fingerprint, fp);
    EXPECT_TRUE(records[0].failed);
    EXPECT_TRUE(records[0].timedOut);
    EXPECT_EQ(records[0].attempts, 1);
    EXPECT_NE(records[0].errorMessage.find("watchdog"),
              std::string::npos);
}

TEST(Supervisor, WatchdogChargesTheRunningClaimNotTheQueuedOne)
{
    const auto dir = scratchDir("watchdog_running");
    const ScenarioSpec a = tinySpec("job_a", 1.0);
    const ScenarioSpec b = tinySpec("job_b", 1.5);
    JsonValue sweep = JsonValue::array();
    sweep.push_back(scenarioToJson(a));
    sweep.push_back(scenarioToJson(b));
    writeTextFileAtomic(sweepSpecPath(dir.string()), sweep.dump(2) + "\n");
    // Path order is fingerprint order: the queued claim comes first.
    std::string queued = scenarioFingerprint(a);
    std::string running = scenarioFingerprint(b);
    if (running < queued)
        std::swap(queued, running);

    // A stub owner's wedged batch: both claims frozen together, the
    // loop running the second.
    const std::string claim_dir = sweepClaimDir(dir.string());
    std::filesystem::create_directories(claim_dir);
    auto first = WorkClaim::tryAcquire(claim_dir, queued, "sup-w0", 600000);
    auto second =
        WorkClaim::tryAcquire(claim_dir, running, "sup-w0", 600000);
    ASSERT_TRUE(first.has_value() && second.has_value());
    ASSERT_TRUE(first->renew(0, /*running=*/false));
    ASSERT_TRUE(second->renew(0, /*running=*/true));

    SupervisorOptions options = stubOptions(
        dir.string(), {"/bin/sh", "-c", "while :; do sleep 0.01; done"});
    options.jobTimeoutMs = 120;
    options.maxJobAttempts = 1;
    Supervisor supervisor(std::move(options));
    // The queued job never resolves (the stubs run nothing), so stop
    // the fleet after the kill; the scan that kills also records.
    const Counter &kills =
        MetricsRegistry::instance().counter("supervisor.watchdog_kills");
    const std::uint64_t kills_before = kills.total();
    std::thread stopper([&] {
        const auto t0 = std::chrono::steady_clock::now();
        while (kills.total() == kills_before && elapsedMsSince(t0) < 10000)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        supervisor.requestStop();
    });
    const SupervisorReport report = supervisor.run();
    stopper.join();

    EXPECT_EQ(report.watchdogKills, 1u);
    EXPECT_EQ(report.timeoutRecords, 1u);
    const std::vector<JobResult> records =
        loadMergedRecords(dir.string());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].fingerprint, running);
    EXPECT_TRUE(records[0].timedOut);
}

// -------------------------------------------------------------- health

/** Write `<dir>/metrics/<token>.json` as a beat would: registry
 * counters plus, unless `state` is empty, a status object. The pid is
 * writtenMs / 10, matching the `-p<pid>` tokens the tests pick. */
void
writeDump(const std::string &dir, const std::string &token,
          const std::string &id, std::int64_t writtenMs,
          const std::string &role, const std::string &state,
          std::int64_t flushIntervalMs, JsonValue counters)
{
    JsonValue dump = JsonValue::object();
    dump.set("schemaVersion", JsonValue(1));
    dump.set("id", JsonValue(id));
    dump.set("pid", JsonValue(writtenMs / 10));
    dump.set("writtenMs", JsonValue(writtenMs));
    dump.set("counters", std::move(counters));
    dump.set("gauges", JsonValue::object());
    dump.set("histograms", JsonValue::object());
    if (!state.empty()) {
        WorkerHealth h;
        h.role = role;
        h.state = state;
        h.startedMs = 500;
        h.flushIntervalMs = flushIntervalMs;
        JsonValue status = beatStatus(h);
        if (role == "supervisor")
            status.set("slots", JsonValue::array());
        dump.set("status", std::move(status));
    }
    std::filesystem::create_directories(sweepMetricsDir(dir));
    writeTextFileAtomic(sweepMetricsPath(dir, token), dump.dump(2));
}

JsonValue
counterObject(std::initializer_list<std::pair<const char *, int>> values)
{
    JsonValue out = JsonValue::object();
    for (const auto &[name, value] : values)
        out.set(name, JsonValue(value));
    return out;
}

TEST(Health, DerivedFromDumpsPerIdAcrossIncarnations)
{
    const std::string dir = scratchDir("health").string();
    // Two incarnations of w1 (the first SIGKILLed mid-job), a second
    // worker, and the supervisor.
    writeDump(dir, "w1-p100", "w1", 1000, "worker", "running", 100,
              counterObject({{"worker.jobs_completed", 3},
                        {"worker.jobs_poisoned", 1}}));
    writeDump(dir, "w1-p200", "w1", 2000, "worker", "idle", 100,
              counterObject({{"worker.jobs_completed", 2},
                        {"worker.jobs_timed_out", 1}}));
    writeDump(dir, "w2-p300", "w2", 1500, "worker", "stopped", 100,
              counterObject({{"worker.jobs_completed", 4}}));
    writeDump(dir, "supervisor-p400", "supervisor", 2000, "supervisor",
              "supervising", 500,
              counterObject({{"supervisor.crashes", 2},
                        {"supervisor.watchdog_kills", 1}}));
    // A dump without a status object and a torn dump are skipped.
    writeDump(dir, "w3-p500", "w3", 2000, "worker", "", 100,
              counterObject({}));
    writeTextFileAtomic(sweepMetricsPath(dir, "w4-p600"),
                        "{\"id\": \"w4");

    const auto dumps = readMetricsDumps(dir);
    const JsonValue doc = aggregateHealthJson(dumps, 2200);
    ASSERT_EQ(doc.at("processes").asInt(), 3);
    const auto &rows = doc.at("workers").asArray();
    ASSERT_EQ(rows.size(), 3u);

    // Rows are id-sorted; the supervisor row carries its slot table.
    EXPECT_EQ(rows[0].at("id").asString(), "supervisor");
    EXPECT_EQ(rows[0].at("role").asString(), "supervisor");
    EXPECT_TRUE(rows[0].at("slots").isArray());
    EXPECT_EQ(rows[0].at("jobsCompleted").asInt(), 0);
    EXPECT_EQ(rows[0].at("jobsFailed").asInt(), 2);
    EXPECT_EQ(rows[0].at("jobsTimedOut").asInt(), 1);

    // The newest incarnation's state wins; counts sum over both.
    const JsonValue &w1 = rows[1];
    EXPECT_EQ(w1.at("id").asString(), "w1");
    EXPECT_EQ(w1.at("pid").asInt(), 200);
    EXPECT_EQ(w1.at("state").asString(), "idle");
    EXPECT_EQ(w1.at("updatedMs").asInt(), 2000);
    EXPECT_EQ(w1.at("uptimeMs").asInt(), 1500);
    EXPECT_EQ(w1.at("jobsCompleted").asInt(), 5);
    EXPECT_EQ(w1.at("jobsFailed").asInt(), 1);
    EXPECT_EQ(w1.at("jobsTimedOut").asInt(), 1);
    EXPECT_EQ(rows[2].at("id").asString(), "w2");

    EXPECT_EQ(doc.at("states").at("idle").asInt(), 1);
    EXPECT_EQ(doc.at("states").at("stopped").asInt(), 1);
    EXPECT_EQ(doc.at("states").at("supervising").asInt(), 1);
    EXPECT_FALSE(doc.at("states").contains("running"));
    EXPECT_EQ(doc.at("jobsCompleted").asInt(), 9);
    EXPECT_EQ(doc.at("jobsFailed").asInt(), 3);
    EXPECT_EQ(doc.at("jobsTimedOut").asInt(), 2);
    // The fleet's completions equal the merged --metrics counter.
    EXPECT_EQ(aggregateMetricsJson(dumps)
                  .at("counters")
                  .at("worker.jobs_completed")
                  .asInt(),
              doc.at("jobsCompleted").asInt());

    // Every row carries a staleness verdict against a positive
    // declared cadence.
    ASSERT_TRUE(doc.contains("staleWorkers"));
    for (const JsonValue &row : rows) {
        EXPECT_TRUE(row.contains("staleMs"));
        EXPECT_TRUE(row.contains("staleSeconds"));
        EXPECT_TRUE(row.contains("stale"));
        EXPECT_GT(row.at("flushIntervalMs").asInt(), 0);
    }
    // w1 (100 ms cadence, last beat at 2000) is fresh at exactly 2x
    // the cadence and stale one ms later; w2 is long stale.
    EXPECT_EQ(w1.at("staleMs").asInt(), 200);
    EXPECT_DOUBLE_EQ(w1.at("staleSeconds").asDouble(), 0.2);
    EXPECT_FALSE(w1.at("stale").asBool());
    EXPECT_TRUE(rows[2].at("stale").asBool());
    EXPECT_FALSE(rows[0].at("stale").asBool());
    EXPECT_EQ(doc.at("staleWorkers").asInt(), 1);
    const JsonValue later = aggregateHealthJson(dumps, 2201);
    EXPECT_TRUE(later.at("workers").asArray()[1].at("stale").asBool());
    EXPECT_EQ(later.at("staleWorkers").asInt(), 2);
}

TEST(Health, BeatStatusRidesTheMetricsDump)
{
    const std::string dir = scratchDir("health_beat").string();
    WorkerHealth h;
    h.state = "running";
    h.startedMs = unixTimeMs();
    h.jobFingerprint = "FP";
    h.jobName = "job0";
    h.jobProgress = 7;
    h.jobAttempt = 2;
    h.flushIntervalMs = 100;
    ASSERT_TRUE(writeMetricsSnapshot(dir, "w1", "w1-p1", beatStatus(h)));

    const auto dumps = readMetricsDumps(dir);
    ASSERT_EQ(dumps.size(), 1u);
    const JsonValue &status = dumps[0].second.at("status");
    EXPECT_GE(status.at("rssKb").asInt(), -1);
    EXPECT_TRUE(status.contains("hlc"));

    const JsonValue doc = aggregateHealthJson(dumps, unixTimeMs());
    ASSERT_EQ(doc.at("processes").asInt(), 1);
    const JsonValue &row = doc.at("workers").asArray()[0];
    EXPECT_EQ(row.at("id").asString(), "w1");
    EXPECT_EQ(row.at("pid").asInt(),
              static_cast<std::int64_t>(::getpid()));
    EXPECT_EQ(row.at("role").asString(), "worker");
    EXPECT_EQ(row.at("state").asString(), "running");
    EXPECT_EQ(row.at("jobFingerprint").asString(), "FP");
    EXPECT_EQ(row.at("jobName").asString(), "job0");
    EXPECT_EQ(row.at("jobProgress").asInt(), 7);
    EXPECT_EQ(row.at("jobAttempt").asInt(), 2);
    EXPECT_GT(row.at("updatedMs").asInt(), 0);
    // The metrics view ignores the status object.
    EXPECT_FALSE(aggregateMetricsJson(dumps).contains("status"));
}

TEST(Health, DumpWriteFailureIsToleratedNotThrown)
{
    // An unwritable sweep root: the beat's write must report false,
    // never throw — observability cannot take down the worker.
    EXPECT_FALSE(writeMetricsSnapshot("/proc/definitely/not/writable",
                                      "w", "w-p1",
                                      beatStatus(WorkerHealth{})));
}

} // namespace
} // namespace treevqa
