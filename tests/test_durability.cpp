/**
 * @file
 * Tests for the durability budget: the Durable / BestEffort write
 * classes of common/file_util (io.* accounting, fsync fault sites only
 * on durable writes, atomicity without fsync), the worker's per-job
 * fsync budget with its byte-identical summary, and the metrics and
 * `--health` exactness a SIGKILL between jobs must not break.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
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
#include "dist/worker_daemon.h"
#include "svc/job_scheduler.h"
#include "svc/sweep_dir.h"

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

TEST(Durability, WorkerDrainSpendsAtMostTwoDurableFsyncsPerJob)
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

    // One durable append per record, plus the compaction's store and
    // summary replaces (file + directory fsyncs each).
    const std::uint64_t fsyncs = counterTotal("io.durable_fsyncs");
    EXPECT_GE(fsyncs, static_cast<std::uint64_t>(kJobs));
    EXPECT_LE(fsyncs, static_cast<std::uint64_t>(2 * kJobs));
    // Per job: one lease renewal before the append and one beat (the
    // metrics dump); plus the start, drain and stop beats.
    EXPECT_LE(counterTotal("io.best_effort_renames"),
              static_cast<std::uint64_t>(2 * kJobs + 3));
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

TEST(Durability, SigkilledWorkerLeavesMergedMetricsCountingItsFirstJob)
{
    const std::vector<ScenarioSpec> specs = noCheckpointSweep(3);

    // The child completes its first job, then dies to SIGKILL 10 ms
    // into the second one, so the dumps must count exactly that job.
    // A 15 ms lease puts the heartbeat on a 5 ms cadence: heartbeat
    // beats run during the 20 ms first job and race its resolution
    // beat. Random 8 ms rename delays hold some heartbeat dumps in
    // flight across the resolution, and the 10 ms before the kill let
    // them land — over the resolution beat's dump, with an older
    // count, unless beats rename in snapshot order.
    for (int round = 0; round < 5; ++round) {
        const std::filesystem::path dir =
            scratchDir("sigkill" + std::to_string(round));
        const pid_t child = ::fork();
        ASSERT_GE(child, 0);
        if (child == 0) {
            try {
                MetricsRegistry::instance().reset(); // parent's totals
                FaultInjection::instance().arm(
                    "{\"seed\": " + std::to_string(round + 1)
                    + R"(, "faults": [{"site": "file.write_atomic.rename",
                        "action": "delay-ms", "ms": 8,
                        "probability": 0.3, "times": 0}]})");
                int calls = 0;
                WorkerOptions options;
                options.sweepDir = dir.string();
                options.workerId = "victim";
                options.leaseMs = 15;
                options.jobRunner = [&calls](const ScenarioSpec &spec,
                                             const ScenarioRunOptions &) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(++calls == 1 ? 20
                                                               : 10));
                    if (calls == 2)
                        ::raise(SIGKILL);
                    JobResult r;
                    r.spec = spec;
                    r.fingerprint = scenarioFingerprint(spec);
                    r.completed = true;
                    r.iterations = 1;
                    r.finalEnergy = -1.0;
                    return r;
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

        const auto dumps = readMetricsDumps(dir.string());
        const JsonValue merged = aggregateMetricsJson(dumps);
        EXPECT_EQ(merged.at("processes").asInt(), 1);
        EXPECT_EQ(
            merged.at("counters").at("worker.jobs_completed").asInt(), 1)
            << "round " << round;
        EXPECT_EQ(loadMergedRecords(dir.string()).size(), 1u);

        const JsonValue health = aggregateHealthJson(dumps, unixTimeMs());
        ASSERT_EQ(health.at("processes").asInt(), 1);
        const JsonValue &row = health.at("workers").asArray().at(0);
        EXPECT_EQ(row.at("id").asString(), "victim");
        EXPECT_EQ(row.at("jobsCompleted").asInt(), 1) << "round " << round;
        EXPECT_EQ(health.at("jobsCompleted").asInt(), 1);
    }
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
