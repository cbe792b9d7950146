/**
 * @file
 * Tests for the durability budget: the Durable / BestEffort write
 * classes of common/file_util (io.* accounting, fsync fault sites only
 * on durable writes, atomicity without fsync), the worker's batch
 * commit point (one fsync and one beat per claim batch, with its
 * byte-identical summary; poison records and lost leases at the
 * commit), the scheduler's group commit (one fsync per batch, its
 * wall ledger), and the metrics and `--health` exactness a SIGKILL
 * between or inside batches must not break.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "dist/health.h"
#include "dist/store_merge.h"
#include "dist/work_claim.h"
#include "dist/worker_daemon.h"
#include "svc/job_scheduler.h"
#include "svc/result_store.h"
#include "svc/sweep_dir.h"

#include "pool_size_guard.h"

namespace treevqa {
namespace {

std::filesystem::path
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir())
        / ("durability_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::uint64_t
counterTotal(const std::string &name)
{
    return MetricsRegistry::instance().counter(name).total();
}

/** Jobs without checkpoints (2-qubit TFIM, one-layer HEA, two SPSA
 * iterations): their only durable write is the record append. */
std::vector<ScenarioSpec>
noCheckpointSweep(int jobs)
{
    std::vector<ScenarioSpec> specs;
    for (int j = 0; j < jobs; ++j) {
        ScenarioSpec spec;
        spec.name = "job" + std::to_string(j);
        spec.problem = "tfim";
        spec.size = 2;
        spec.field = 0.3 + 0.05 * j;
        spec.ansatz = "hea";
        spec.layers = 1;
        spec.engine.shotsPerTerm = 16;
        spec.maxIterations = 2;
        spec.checkpointInterval = 0;
        specs.push_back(std::move(spec));
    }
    return specs;
}

// ------------------------------------------------------ write classes

TEST(Durability, BestEffortWritesSkipFsyncAndAreCounted)
{
    const std::filesystem::path dir = scratchDir("classes");
    const std::string file = (dir / "snapshot.json").string();
    const std::string log = (dir / "journal.jsonl").string();

    const std::uint64_t fsyncs = counterTotal("io.durable_fsyncs");
    const std::uint64_t durable_renames =
        counterTotal("io.durable_renames");
    const std::uint64_t best_renames =
        counterTotal("io.best_effort_renames");
    const std::uint64_t best_opens = counterTotal("io.best_effort_opens");

    writeTextFileAtomic(file, "one", Durability::BestEffort);
    appendTextDurable(log, "{\"a\":1}\n", Durability::BestEffort);
    EXPECT_EQ(counterTotal("io.durable_fsyncs"), fsyncs);
    EXPECT_EQ(counterTotal("io.best_effort_renames"), best_renames + 1);
    EXPECT_EQ(counterTotal("io.best_effort_opens"), best_opens + 2);

    // Durable: file fsync + directory fsync, then the append's fsync.
    writeTextFileAtomic(file, "two");
    EXPECT_EQ(counterTotal("io.durable_fsyncs"), fsyncs + 2);
    EXPECT_EQ(counterTotal("io.durable_renames"), durable_renames + 1);
    appendTextDurable(log, "{\"b\":2}\n");
    EXPECT_EQ(counterTotal("io.durable_fsyncs"), fsyncs + 3);

    std::string text;
    ASSERT_TRUE(readTextFile(file, text));
    EXPECT_EQ(text, "two");
    ASSERT_TRUE(readTextFile(log, text));
    EXPECT_EQ(text, "{\"a\":1}\n{\"b\":2}\n");
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    ASSERT_TRUE(snap.histograms.count("io.fsync_ns"));
    EXPECT_GE(snap.histograms.at("io.fsync_ns").count, 3u);
}

TEST(Durability, FsyncFaultSitesOnlySeeDurableWrites)
{
    const std::filesystem::path dir = scratchDir("fsync_sites");
    const std::string file = (dir / "f.json").string();
    FaultInjection::instance().arm(
        R"({"seed": 1, "faults": [
            {"site": "file.write_atomic.fsync", "action": "fail-errno",
             "errno": "EIO", "hit": 1},
            {"site": "file.append.fsync", "action": "fail-errno",
             "errno": "EIO", "hit": 1}]})");
    // Best-effort writes never reach the fsync sites...
    writeTextFileAtomic(file, "telemetry", Durability::BestEffort);
    appendTextDurable(file + ".jsonl", "x\n", Durability::BestEffort);
    auto counters = FaultInjection::instance().counters();
    EXPECT_EQ(counters["file.write_atomic.fsync"].evaluations, 0u);
    EXPECT_EQ(counters["file.append.fsync"].evaluations, 0u);
    // ...so the first planned fsync fault lands on a durable one.
    EXPECT_THROW(writeTextFileAtomic(file, "result"), std::runtime_error);
    EXPECT_THROW(appendTextDurable(file + ".jsonl", "y\n"),
                 std::runtime_error);
    counters = FaultInjection::instance().counters();
    EXPECT_EQ(counters["file.write_atomic.fsync"].fires, 1u);
    EXPECT_EQ(counters["file.append.fsync"].fires, 1u);
    FaultInjection::instance().disarm();

    std::string text;
    ASSERT_TRUE(readTextFile(file, text));
    EXPECT_EQ(text, "telemetry"); // the failed replace left the old file
}

TEST(Durability, ReaderRacingBestEffortAtomicWritesNeverSeesTornContent)
{
    // Content k is one repeated letter at a letter-specific size, so
    // any mix of two versions (or a truncated one) is detectable.
    const auto content = [](int k) {
        const char letter = static_cast<char>('a' + k % 26);
        return std::string(
            65536 + 1024 * static_cast<std::size_t>(letter - 'a'),
            letter);
    };
    const std::filesystem::path dir = scratchDir("race");
    const std::string path = (dir / "health.json").string();
    writeTextFileAtomic(path, content(0), Durability::BestEffort);

    std::atomic<bool> done{false};
    std::thread writer([&] {
        for (int k = 1; k <= 300; ++k)
            writeTextFileAtomic(path, content(k), Durability::BestEffort);
        done.store(true);
    });
    std::size_t reads = 0;
    std::size_t torn = 0;
    while (!done.load()) {
        std::string text;
        ASSERT_TRUE(readTextFile(path, text));
        ++reads;
        const bool whole = !text.empty()
            && text.find_first_not_of(text[0]) == std::string::npos
            && text.size()
                == 65536
                    + 1024 * static_cast<std::size_t>(text[0] - 'a');
        if (!whole)
            ++torn;
    }
    writer.join();
    EXPECT_GT(reads, 0u);
    EXPECT_EQ(torn, 0u) << "of " << reads << " reads";
    // No staging file survives the writer.
    std::size_t files = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

// ----------------------------------------------------- worker budget

TEST(Durability, WorkerDrainSpendsOneDurableFsyncPerBatch)
{
    constexpr int kJobs = 20;
    const std::vector<ScenarioSpec> specs = noCheckpointSweep(kJobs);
    const std::filesystem::path dir = scratchDir("drain");
    MetricsRegistry::instance().reset();

    WorkerOptions options;
    options.sweepDir = dir.string();
    options.workerId = "w0";
    WorkerDaemon daemon(options);
    const WorkerReport report = daemon.run(specs);
    ASSERT_TRUE(report.drained);
    ASSERT_TRUE(report.merged);
    ASSERT_EQ(report.completed, static_cast<std::size_t>(kJobs));

    // Group commit: one durable append per claim batch, plus the
    // compaction's store and summary replaces (file + directory fsync
    // each).
    const std::uint64_t batches =
        (kJobs + options.claimBatch - 1) / options.claimBatch;
    EXPECT_EQ(counterTotal("io.durable_fsyncs"), batches + 4);
    // One beat (the metrics dump) per batch, plus the start, drain and
    // stop beats. Commits confirm a fresh lease without rewriting it.
    EXPECT_LE(counterTotal("io.best_effort_renames"), batches + 3);
    EXPECT_FALSE(std::filesystem::exists(dir / "health"));

    std::string summary;
    ASSERT_TRUE(readTextFile(sweepSummaryPath(dir.string()), summary));
    EXPECT_EQ(summary,
              sweepSummaryJson(JobScheduler().run(specs).jobs).dump(2)
                  + "\n");

    // The stop beat's dump carries the root wall gauge, and the loop
    // phases never account for more than it.
    const JsonValue merged =
        aggregateMetricsJson(readMetricsDumps(dir.string()));
    const JsonValue &wall = merged.at("wall");
    ASSERT_EQ(wall.asObject().size(), 1u);
    const JsonValue &row = wall.asObject().front().second;
    EXPECT_EQ(row.at("root").asString(), "worker.wall_ns");
    EXPECT_GT(row.at("attributedMs").asDouble(), 0.0);
    EXPECT_LE(row.at("attributedMs").asDouble(),
              row.at("wallMs").asDouble());
    EXPECT_EQ(merged.at("counters").at("worker.jobs_completed").asInt(),
              kJobs);
}

TEST(Durability, SchedulerDrainSpendsOneDurableFsyncPerBatch)
{
    constexpr int kJobs = 20;
    const std::vector<ScenarioSpec> specs = noCheckpointSweep(kJobs);
    const std::string in_memory =
        sweepSummaryJson(JobScheduler().run(specs).jobs).dump(2);
    for (const std::size_t lanes : {1u, 4u}) {
        const std::filesystem::path dir =
            scratchDir("scheduler_drain" + std::to_string(lanes));
        PoolSizeGuard pool(lanes);
        MetricsRegistry::instance().reset();
        SchedulerConfig config;
        config.outDir = dir.string();
        const SweepResult sweep = JobScheduler(config).run(specs);
        ASSERT_EQ(sweep.executed, static_cast<std::size_t>(kJobs));

        // Group commit: one durable append per kGroupCommitBatch
        // records, and nothing else durable (journal and metrics dump
        // are best-effort).
        EXPECT_EQ(counterTotal("io.durable_fsyncs"),
                  (kJobs + kGroupCommitBatch - 1) / kGroupCommitBatch)
            << lanes << " lanes";
        EXPECT_EQ(sweepSummaryJson(sweep.jobs).dump(2), in_memory);
        if (lanes == 1) {
            // One lane commits in job order: the store is line for
            // line what one append per record wrote.
            std::string expected;
            for (const JobResult &job : sweep.jobs)
                expected += jobResultToStoredLine(job) + "\n";
            std::string stored;
            ASSERT_TRUE(readTextFile(sweepStorePath(dir.string()), stored));
            EXPECT_EQ(stored, expected);
        }

        // The drain-end dump carries the root wall gauge, and the
        // calling thread's phases never account for more than it.
        const JsonValue merged =
            aggregateMetricsJson(readMetricsDumps(dir.string()));
        const JsonValue &wall = merged.at("wall");
        ASSERT_EQ(wall.asObject().size(), 1u);
        const JsonValue &row = wall.asObject().front().second;
        EXPECT_EQ(row.at("root").asString(), "scheduler.wall_ns");
        EXPECT_GT(row.at("attributedMs").asDouble(), 0.0);
        EXPECT_LE(row.at("attributedMs").asDouble(),
                  row.at("wallMs").asDouble())
            << lanes << " lanes";
        EXPECT_EQ(
            merged.at("counters").at("scheduler.jobs_executed").asInt(),
            kJobs);
    }
}

/** A trivially completed record for `spec` (synthetic job body). */
JobResult
syntheticRecord(const ScenarioSpec &spec)
{
    JobResult r;
    r.spec = spec;
    r.fingerprint = scenarioFingerprint(spec);
    r.completed = true;
    r.iterations = 1;
    r.finalEnergy = -1.0;
    return r;
}

/**
 * Fork a worker (15 ms lease, so a 5 ms heartbeat) over `specs` that
 * dies to SIGKILL 10 ms into its `killCall`-th job, and wait for it.
 * Job 1 takes 20 ms, the others 10 ms, so heartbeat beats race the
 * commit beats. Random 8 ms rename delays hold some heartbeat dumps in
 * flight across a commit, and the 10 ms before the kill let them land
 * — over the commit beat's dump, with an older count, unless beats
 * rename in snapshot order.
 */
void
sigkillWorkerInJob(const std::filesystem::path &dir,
                   const std::vector<ScenarioSpec> &specs, int claimBatch,
                   int killCall, int seed)
{
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        try {
            MetricsRegistry::instance().reset(); // parent's totals
            FaultInjection::instance().arm(
                "{\"seed\": " + std::to_string(seed)
                + R"(, "faults": [{"site": "file.write_atomic.rename",
                    "action": "delay-ms", "ms": 8,
                    "probability": 0.3, "times": 0}]})");
            int calls = 0;
            WorkerOptions options;
            options.sweepDir = dir.string();
            options.workerId = "victim";
            options.leaseMs = 15;
            options.claimBatch = claimBatch;
            options.jobRunner = [&](const ScenarioSpec &spec,
                                    const ScenarioRunOptions &) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(++calls == 1 ? 20 : 10));
                if (calls == killCall)
                    ::raise(SIGKILL);
                return syntheticRecord(spec);
            };
            WorkerDaemon(options).run(specs);
        } catch (...) {
        }
        std::_Exit(3); // the kill never came
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

/** The killed worker's dumps count exactly `jobs` completions, and
 * exactly that many records are on disk. */
void
expectDumpsCountRecordsOnDisk(const std::filesystem::path &dir,
                              std::int64_t jobs, int round)
{
    const auto dumps = readMetricsDumps(dir.string());
    const JsonValue merged = aggregateMetricsJson(dumps);
    EXPECT_EQ(merged.at("processes").asInt(), 1);
    const JsonValue *completed =
        merged.at("counters").find("worker.jobs_completed");
    EXPECT_EQ(completed ? completed->asInt() : 0, jobs)
        << "round " << round;
    EXPECT_EQ(static_cast<std::int64_t>(
                  loadMergedRecords(dir.string()).size()),
              jobs)
        << "round " << round;

    const JsonValue health = aggregateHealthJson(dumps, unixTimeMs());
    ASSERT_EQ(health.at("processes").asInt(), 1);
    const JsonValue &row = health.at("workers").asArray().at(0);
    EXPECT_EQ(row.at("id").asString(), "victim");
    EXPECT_EQ(row.at("jobsCompleted").asInt(), jobs) << "round " << round;
    EXPECT_EQ(health.at("jobsCompleted").asInt(), jobs);
}

TEST(Durability, SigkilledWorkerLeavesMergedMetricsCountingItsFirstBatch)
{
    // Batches of two: the kill lands in the first job of the second
    // batch, so the dumps must count exactly the committed first batch.
    const std::vector<ScenarioSpec> specs = noCheckpointSweep(4);
    for (int round = 0; round < 5; ++round) {
        const std::filesystem::path dir =
            scratchDir("sigkill" + std::to_string(round));
        sigkillWorkerInJob(dir, specs, 2, 3, round + 1);
        expectDumpsCountRecordsOnDisk(dir, 2, round);
    }
}

TEST(Durability, SigkilledWorkerMidBatchLeavesNothingCounted)
{
    // The kill lands in the second job of the first batch: the first
    // job's record was still buffered, so nothing is on disk and the
    // dumps count nothing.
    const std::vector<ScenarioSpec> specs = noCheckpointSweep(3);
    for (int round = 0; round < 3; ++round) {
        const std::filesystem::path dir =
            scratchDir("sigkill_mid" + std::to_string(round));
        sigkillWorkerInJob(dir, specs, 8, 2, round + 1);
        expectDumpsCountRecordsOnDisk(dir, 0, round);
    }
}

// ------------------------------------------------------ commit point

TEST(Durability, PoisonedJobCommitsTheBufferAtOnce)
{
    // Job 1 completes and waits in the buffer; job 2 throws its whole
    // budget. Before job 3 starts, job 1's record and job 2's poison
    // record must both be durable in the shard.
    const std::vector<ScenarioSpec> specs = noCheckpointSweep(3);
    const std::filesystem::path dir = scratchDir("poison_commit");
    int calls = 0;
    std::vector<JobResult> seen_by_job3;
    WorkerOptions options;
    options.sweepDir = dir.string();
    options.workerId = "w0";
    options.maxJobAttempts = 1;
    options.mergeOnDrain = false;
    options.jobRunner = [&](const ScenarioSpec &spec,
                            const ScenarioRunOptions &) {
        if (++calls == 2)
            throw std::runtime_error("defective spec");
        if (calls == 3)
            seen_by_job3 =
                ResultStore(sweepShardPath(dir.string(), "w0")).load();
        return syntheticRecord(spec);
    };
    const WorkerReport report = WorkerDaemon(options).run(specs);
    EXPECT_EQ(report.completed, 2u);
    EXPECT_EQ(report.poisoned, 1u);
    ASSERT_EQ(seen_by_job3.size(), 2u);
    EXPECT_TRUE(seen_by_job3[0].completed);
    EXPECT_TRUE(seen_by_job3[1].failed);
    EXPECT_EQ(seen_by_job3[1].attempts, 1);
    EXPECT_EQ(seen_by_job3[1].errorMessage, "defective spec");
    EXPECT_EQ(ResultStore(sweepShardPath(dir.string(), "w0")).load().size(),
              3u);
}

TEST(Durability, LeaseLostBeforeTheCommitDropsOnlyThatRecord)
{
    // While job 1 waits in the buffer, a reaper takes its lease (its
    // claim file now names another owner, already stale). The commit
    // must drop job 1's record and commit the others; the worker then
    // reaps the stale lease and runs job 1 again.
    const std::vector<ScenarioSpec> specs = noCheckpointSweep(3);
    const std::filesystem::path dir = scratchDir("lost_commit");
    const std::string claim_dir = sweepClaimDir(dir.string());
    int calls = 0;
    std::string stolen;
    std::vector<JobResult> seen_on_rerun;
    WorkerOptions options;
    options.sweepDir = dir.string();
    options.workerId = "w0";
    options.leaseMs = 60000;
    options.pollMs = 5;
    options.mergeOnDrain = false;
    options.jobRunner = [&](const ScenarioSpec &spec,
                            const ScenarioRunOptions &) {
        const std::string fp = scenarioFingerprint(spec);
        if (++calls == 1) {
            stolen = fp;
        } else if (calls == 2) {
            ClaimInfo thief = *WorkClaim::peek(claim_dir, stolen);
            thief.owner = "reaper";
            thief.deadlineMs = unixTimeMs() - 60000;
            writeTextFileAtomic(WorkClaim::claimPath(claim_dir, stolen),
                                claimToJson(thief).dump() + "\n");
        } else if (fp == stolen) {
            seen_on_rerun =
                ResultStore(sweepShardPath(dir.string(), "w0")).load();
        }
        return syntheticRecord(spec);
    };
    const WorkerReport report = WorkerDaemon(options).run(specs);
    EXPECT_EQ(calls, 4);
    EXPECT_EQ(report.lostClaims, 1u);
    EXPECT_EQ(report.completed, 3u);
    EXPECT_GE(report.reapedLeases, 1u);
    EXPECT_TRUE(report.drained);
    // The first commit held the two other jobs, never the stolen one.
    ASSERT_EQ(seen_on_rerun.size(), 2u);
    for (const JobResult &record : seen_on_rerun)
        EXPECT_NE(record.fingerprint, stolen);
    EXPECT_EQ(loadMergedRecords(dir.string()).size(), specs.size());
}

// ---------------------------------------------------------------- crc

TEST(Durability, Crc32MatchesCheckValueAndBytewiseReference)
{
    EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
    EXPECT_EQ(crc32Hex("123456789"), "cbf43926");
    EXPECT_EQ(crc32(""), 0u);
    EXPECT_EQ(crc32Hex(""), "00000000");

    const auto reference = [](const std::string &data) {
        std::uint32_t crc = 0xffffffffu;
        for (const char ch : data) {
            crc ^= static_cast<unsigned char>(ch);
            for (int k = 0; k < 8; ++k)
                crc = (crc & 1u) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
        }
        return crc ^ 0xffffffffu;
    };
    std::string data;
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (int len = 0; len <= 70; ++len) {
        EXPECT_EQ(crc32(data), reference(data)) << "length " << len;
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        data.push_back(static_cast<char>(state >> 56));
    }
}

} // namespace
} // namespace treevqa
