/**
 * @file
 * Tests for the deterministic fault-injection registry
 * (common/fault_injection.h) and the hardened I/O it exercises: plan
 * parsing and trigger determinism, retry/backoff in file_util, CRC
 * quarantine in the result store, the checkpoint last-good fallback,
 * and the worker daemon's poison-job quarantine.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "dist/store_merge.h"
#include "dist/worker_daemon.h"
#include "svc/result_store.h"
#include "svc/scenario_runner.h"
#include "svc/sweep_dir.h"

#include "plan_crash.h"

namespace treevqa {
namespace {

std::filesystem::path
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / ("fault_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** The registry is process-wide state: every test that arms it must
 * disarm on the way out, pass or fail. */
class FaultInjectionTest : public ::testing::Test
{
  protected:
    void TearDown() override { FaultInjection::instance().disarm(); }
};

/** SIGKILL right after the second durable checkpoint (iteration 8 of
 * tinySpec): the current generation holds iteration 8, the rotated
 * .prev iteration 4. */
constexpr const char *kCrashAfterSecondCheckpoint =
    R"({"faults": [{"site": "checkpoint.written", "action": "crash",
    "hit": 2}]})";

ScenarioSpec
tinySpec(const std::string &name, int iterations = 12)
{
    ScenarioSpec spec;
    spec.name = name;
    spec.problem = "tfim";
    spec.size = 4;
    spec.field = 0.7;
    spec.ansatz = "hea";
    spec.layers = 1;
    spec.engine.shotsPerTerm = 256;
    spec.maxIterations = iterations;
    spec.seed = 99;
    spec.checkpointInterval = 4;
    return spec;
}

// ------------------------------------------------------ plan validation

TEST_F(FaultInjectionTest, MalformedPlansAreRejected)
{
    auto &fi = FaultInjection::instance();
    EXPECT_THROW(fi.arm("not json"), std::exception);
    EXPECT_THROW(fi.arm("[]"), std::exception); // must be an object
    // Unknown keys are typos, not extensions.
    EXPECT_THROW(
        fi.arm(R"({"seed": 1, "faults": [{"site": "x",
                "action": "crash", "hit": 1, "bogus": 2}]})"),
        std::exception);
    // A trigger is required, and only one of hit/probability.
    EXPECT_THROW(
        fi.arm(R"({"faults": [{"site": "x", "action": "crash"}]})"),
        std::exception);
    EXPECT_THROW(fi.arm(R"({"faults": [{"site": "x", "action":
                "crash", "hit": 1, "probability": 0.5}]})"),
                 std::exception);
    // Unknown action / unknown errno name.
    EXPECT_THROW(fi.arm(R"({"faults": [{"site": "x",
                "action": "explode", "hit": 1}]})"),
                 std::exception);
    EXPECT_THROW(fi.arm(R"({"faults": [{"site": "x",
                "action": "fail-errno", "errno": "EWHAT",
                "hit": 1}]})"),
                 std::exception);
    EXPECT_FALSE(FaultInjection::armed());
}

TEST_F(FaultInjectionTest, DisarmedSitesAreNoOps)
{
    EXPECT_FALSE(FaultInjection::armed());
    const FaultHit hit = FAULT_POINT("nothing.armed");
    EXPECT_FALSE(static_cast<bool>(hit));
    EXPECT_EQ(hit.action, FaultAction::None);
}

// ------------------------------------------------------------- triggers

TEST_F(FaultInjectionTest, HitTriggerFiresOnNthEvaluationOnly)
{
    auto &fi = FaultInjection::instance();
    fi.arm(R"({"seed": 1, "faults": [{"site": "t.hit",
           "action": "fail-errno", "errno": "EIO", "hit": 3}]})");
    EXPECT_FALSE(static_cast<bool>(FAULT_POINT("t.hit")));
    EXPECT_FALSE(static_cast<bool>(FAULT_POINT("t.hit")));
    const FaultHit third = FAULT_POINT("t.hit");
    EXPECT_EQ(third.action, FaultAction::FailErrno);
    EXPECT_EQ(third.err, EIO);
    // times defaults to 1: never again.
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(static_cast<bool>(FAULT_POINT("t.hit")));
    // Other sites are untouched.
    EXPECT_FALSE(static_cast<bool>(FAULT_POINT("t.other")));
    const auto counters = fi.counters();
    EXPECT_EQ(counters.at("t.hit").evaluations, 8u);
    EXPECT_EQ(counters.at("t.hit").fires, 1u);
    EXPECT_EQ(fi.totalFires(), 1u);
}

TEST_F(FaultInjectionTest, TimesCapsAndZeroMeansUnlimited)
{
    auto &fi = FaultInjection::instance();
    fi.arm(R"({"faults": [{"site": "t.cap", "action": "fail-errno",
           "errno": "EIO", "hit": 1, "times": 2}]})");
    EXPECT_TRUE(static_cast<bool>(FAULT_POINT("t.cap")));
    EXPECT_TRUE(static_cast<bool>(FAULT_POINT("t.cap")));
    EXPECT_FALSE(static_cast<bool>(FAULT_POINT("t.cap")));

    fi.arm(R"({"faults": [{"site": "t.all", "action": "fail-errno",
           "errno": "EIO", "hit": 1, "times": 0}]})");
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(static_cast<bool>(FAULT_POINT("t.all")));
}

TEST_F(FaultInjectionTest, TokensShareTimesAcrossProcesses)
{
    const auto dir = scratchDir("tokens");
    const std::string tokens = (dir / "budget").string();
    const std::string plan =
        R"({"faults": [{"site": "t.tok", "action": "fail-errno",
        "errno": "EIO", "hit": 1, "times": 2, "tokens": ")"
        + tokens + R"("}]})";
    // Each arm() stands in for a fresh process re-arming the same
    // plan: its own counters start at zero, the budget does not.
    auto &fi = FaultInjection::instance();
    int fires = 0;
    for (int process = 0; process < 3; ++process) {
        fi.arm(plan);
        for (int i = 0; i < 5; ++i)
            fires += static_cast<bool>(FAULT_POINT("t.tok")) ? 1 : 0;
    }
    EXPECT_EQ(fires, 2);
    EXPECT_EQ(listSortedFiles(tokens, "").size(), 2u);

    // A shared budget needs a bound.
    EXPECT_THROW(fi.arm(R"({"faults": [{"site": "t.tok", "action":
                "crash", "hit": 1, "times": 0, "tokens": ")"
                        + tokens + R"("}]})"),
                 std::invalid_argument);
}

TEST_F(FaultInjectionTest, CheckpointWrittenSiteMarksEachIntervalCheckpoint)
{
    // checkpointInterval 4 over 12 iterations: durable checkpoints at
    // 4 and 8 (none at the final iteration), so two kill points.
    const auto dir = scratchDir("ckpt_written");
    FaultInjection::instance().arm(R"({"faults": []})");
    ScenarioRunOptions options;
    options.checkpointPath = (dir / "job.json").string();
    ASSERT_TRUE(runScenario(tinySpec("written"), options).completed);
    const auto counters = FaultInjection::instance().counters();
    ASSERT_EQ(counters.count("checkpoint.written"), 1u);
    EXPECT_EQ(counters.at("checkpoint.written").evaluations, 2u);
    EXPECT_EQ(counters.at("checkpoint.written").fires, 0u);
}

TEST_F(FaultInjectionTest, ProbabilityScheduleIsSeedDeterministic)
{
    auto &fi = FaultInjection::instance();
    const std::string plan =
        R"({"seed": 1234, "faults": [{"site": "t.p", "action":
        "fail-errno", "errno": "EIO", "probability": 0.3,
        "times": 0}]})";
    const auto schedule = [&] {
        std::vector<bool> fires;
        for (int i = 0; i < 200; ++i)
            fires.push_back(static_cast<bool>(FAULT_POINT("t.p")));
        return fires;
    };
    fi.arm(plan);
    const std::vector<bool> first = schedule();
    fi.arm(plan); // re-arm resets the stream
    EXPECT_EQ(first, schedule());

    std::size_t fired = 0;
    for (const bool f : first)
        fired += f ? 1 : 0;
    EXPECT_GT(fired, 30u); // ~60 expected at p=0.3
    EXPECT_LT(fired, 100u);

    // A different seed gives a different (but equally deterministic)
    // schedule.
    fi.arm(R"({"seed": 99, "faults": [{"site": "t.p", "action":
           "fail-errno", "errno": "EIO", "probability": 0.3,
           "times": 0}]})");
    EXPECT_NE(first, schedule());
}

TEST_F(FaultInjectionTest, TornPrefixMath)
{
    FaultHit hit;
    hit.action = FaultAction::TornWrite;
    hit.keepFraction = 0.5;
    EXPECT_EQ(hit.tornPrefix(100), 50u);
    hit.keepFraction = 0.0;
    EXPECT_EQ(hit.tornPrefix(100), 0u);
    hit.keepFraction = 0.001; // torn but distinguishable from absent
    EXPECT_EQ(hit.tornPrefix(100), 1u);
    hit.keepFraction = 1.5; // clamped
    EXPECT_EQ(hit.tornPrefix(100), 100u);
    EXPECT_EQ(hit.tornPrefix(0), 0u);
}

// ------------------------------------------------- hardened file_util

TEST_F(FaultInjectionTest, AtomicWriteRidesOutTransientRenameFailures)
{
    const auto dir = scratchDir("transient");
    const std::string path = (dir / "f").string();
    FaultInjection::instance().arm(
        R"({"faults": [{"site": "file.write_atomic.rename",
        "action": "fail-errno", "errno": "EAGAIN", "hit": 1,
        "times": 3}]})");
    writeTextFileAtomic(path, "payload"); // 3 EAGAINs, then succeeds
    std::string content;
    ASSERT_TRUE(readTextFile(path, content));
    EXPECT_EQ(content, "payload");
    EXPECT_EQ(FaultInjection::instance().totalFires(), 3u);
}

TEST_F(FaultInjectionTest, AtomicWriteThrowsOnPersistentFailure)
{
    const auto dir = scratchDir("persistent");
    const std::string path = (dir / "f").string();
    writeTextFileAtomic(path, "old");
    FaultInjection::instance().arm(
        R"({"faults": [{"site": "file.write_atomic.rename",
        "action": "fail-errno", "errno": "EIO", "hit": 1}]})");
    EXPECT_THROW(writeTextFileAtomic(path, "new"),
                 std::runtime_error);
    FaultInjection::instance().disarm();
    // The old content is untouched and no staging temp leaks.
    std::string content;
    ASSERT_TRUE(readTextFile(path, content));
    EXPECT_EQ(content, "old");
    std::size_t entries = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        (void)entry;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
}

TEST_F(FaultInjectionTest, DurableAppendSealsTornLines)
{
    const auto dir = scratchDir("seal");
    const std::string path = (dir / "log.jsonl").string();
    appendTextDurable(path, "{\"a\": 1}\n");
    {
        std::ofstream torn(path, std::ios::app);
        torn << "{\"half"; // no newline: a killed writer's fragment
    }
    appendTextDurable(path, "{\"b\": 2}\n");
    std::string content;
    ASSERT_TRUE(readTextFile(path, content));
    EXPECT_EQ(content, "{\"a\": 1}\n{\"half\n{\"b\": 2}\n");
}

// --------------------------------------------- store CRC + quarantine

TEST_F(FaultInjectionTest, StoreQuarantinesCorruptLinesAndRecovers)
{
    const auto dir = scratchDir("store_crc");
    const std::string path = (dir / "results.jsonl").string();

    const JobResult good = runScenario(tinySpec("crcjob"));
    ASSERT_TRUE(good.completed);
    ResultStore store(path);
    store.append(good);

    // Tamper: flip a digit inside the stored record so it still
    // parses but fails its CRC, and add a torn fragment, a
    // consistent-looking record whose fingerprint lies about its spec,
    // and the good record with its crc stripped.
    std::string text;
    ASSERT_TRUE(readTextFile(path, text));
    const std::string key = "\"iterations\":";
    const std::size_t digit = text.find(key);
    ASSERT_NE(digit, std::string::npos);
    std::string tampered = text;
    char &first = tampered[digit + key.size()];
    first = first == '9' ? '8' : '9';
    JsonValue forged = jobResultToJson(good);
    forged.set("fingerprint", JsonValue("00000000deadbeef"));
    forged.set("crc", JsonValue(crc32Hex(forged.dump())));
    std::ofstream out(path, std::ios::trunc);
    out << tampered;           // crc mismatch
    out << "{\"torn\": tru";   // unparseable fragment
    out << "\n" << forged.dump() << "\n"; // fingerprint mismatch
    out << jobResultToJson(good).dump() << "\n"; // missing crc
    out.close();

    StoreLoadStats stats;
    const std::vector<JobResult> records = store.load(&stats);
    EXPECT_EQ(records.size(), 0u);
    EXPECT_EQ(stats.crcMismatches, 2u);
    EXPECT_EQ(stats.parseFailures, 1u);
    EXPECT_EQ(stats.fingerprintMismatches, 1u);
    EXPECT_EQ(stats.corrupt(), 4u);

    // The corrupt lines were copied to the quarantine directory.
    const std::string qdir = quarantineDirFor(path);
    ASSERT_TRUE(std::filesystem::exists(qdir));
    std::string quarantined;
    ASSERT_TRUE(readTextFile(
        (std::filesystem::path(qdir) / "results.jsonl").string(),
        quarantined));
    EXPECT_NE(quarantined.find("crc mismatch"), std::string::npos);
    EXPECT_NE(quarantined.find("unparseable"), std::string::npos);
    EXPECT_NE(quarantined.find("fingerprint"), std::string::npos);
    EXPECT_NE(quarantined.find("missing crc"), std::string::npos);

    // Re-appending the good record makes the store whole again.
    store.append(good);
    StoreLoadStats after;
    const std::vector<JobResult> recovered = store.load(&after);
    ASSERT_EQ(recovered.size(), 1u);
    EXPECT_EQ(recovered[0].fingerprint, good.fingerprint);
    EXPECT_EQ(after.records, 1u);
}

TEST_F(FaultInjectionTest, StoredLinesRoundTripThroughCrc)
{
    const JobResult good = runScenario(tinySpec("roundtrip", 6));
    const std::string line = jobResultToStoredLine(good);
    JsonValue parsed = JsonValue::parse(line);
    const std::string crc = parsed.at("crc").asString();
    ASSERT_TRUE(parsed.erase("crc"));
    EXPECT_EQ(crc32Hex(parsed.dump()), crc);
    const JobResult back = jobResultFromJson(parsed);
    EXPECT_EQ(back.fingerprint, good.fingerprint);
    EXPECT_EQ(back.finalEnergy, good.finalEnergy);
}

TEST_F(FaultInjectionTest, MergeQuarantinesCorruptShardInsteadOfDeleting)
{
    const auto dir = scratchDir("merge_q");
    std::filesystem::create_directories(sweepShardDir(dir.string()));

    const JobResult good = runScenario(tinySpec("mergejob", 6));
    const std::string shard =
        sweepShardPath(dir.string(), "workerA");
    ResultStore(shard).append(good);
    // Corrupt the shard with a torn trailing fragment.
    {
        std::ofstream out(shard, std::ios::app);
        out << "{\"torn";
    }

    const SweepMergeStats stats =
        compactSweepStore(dir.string(), /*removeMergedShards=*/true);
    EXPECT_EQ(stats.inputRecords, 1u);
    EXPECT_EQ(stats.uniqueRecords, 1u);
    EXPECT_EQ(stats.corruptLines, 1u);
    EXPECT_EQ(stats.quarantinedShards, 1u);
    // The shard was moved, not deleted: its bytes survive under
    // quarantine/ and the healthy record still reached the store.
    EXPECT_FALSE(std::filesystem::exists(shard));
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(quarantineDirFor(shard))
        / "workerA.jsonl.shard"));
    StoreLoadStats loaded;
    const auto records =
        ResultStore(sweepStorePath(dir.string())).load(&loaded);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].fingerprint, good.fingerprint);
    EXPECT_EQ(loaded.corrupt(), 0u);
}

// ------------------------------------------- checkpoint CRC + fallback

TEST_F(FaultInjectionTest, CorruptCheckpointFallsBackToLastGood)
{
    const auto dir = scratchDir("ckpt");
    const ScenarioSpec spec = tinySpec("ckptjob");
    std::filesystem::create_directories(sweepCheckpointDir(dir.string()));
    const std::string ckpt =
        sweepCheckpointPath(dir.string(), scenarioFingerprint(spec));

    const JobResult reference = runScenario(spec);

    // Kill the run after the second checkpoint (iteration 8), then
    // corrupt the current checkpoint file: resume must fall back to
    // the rotated .prev generation and still converge bit-identically.
    ScenarioRunOptions options;
    options.checkpointPath = ckpt;
    crashThroughPlan(kCrashAfterSecondCheckpoint,
                     [&] { runScenario(spec, options); });
    ASSERT_TRUE(std::filesystem::exists(ckpt));
    ASSERT_TRUE(std::filesystem::exists(ckpt + ".prev"));

    std::string current;
    ASSERT_TRUE(readTextFile(ckpt, current));
    writeTextFileAtomic(ckpt,
                        current.substr(0, current.size() / 2));

    ScenarioRunOptions resume;
    resume.checkpointPath = ckpt;
    const JobResult finished = runScenario(spec, resume);
    ASSERT_TRUE(finished.completed);
    EXPECT_TRUE(finished.resumed);
    EXPECT_EQ(finished.finalEnergy, reference.finalEnergy);
    EXPECT_EQ(finished.bestLoss, reference.bestLoss);
    ASSERT_EQ(finished.trajectory.size(), reference.trajectory.size());
    for (std::size_t i = 0; i < finished.trajectory.size(); ++i)
        EXPECT_EQ(finished.trajectory[i], reference.trajectory[i]);
    // Completion leaves both generations to the record's committer,
    // which retires them once the record is durable.
    EXPECT_TRUE(std::filesystem::exists(ckpt));
    EXPECT_TRUE(std::filesystem::exists(ckpt + ".prev"));
    retireCheckpoints(dir.string(), {finished});
    EXPECT_FALSE(std::filesystem::exists(ckpt));
    EXPECT_FALSE(std::filesystem::exists(ckpt + ".prev"));
}

TEST_F(FaultInjectionTest, PeekFollowsTheRestoreOrderToPrev)
{
    const auto dir = scratchDir("ckpt_peek");
    const std::string ckpt = (dir / "job.json").string();
    const ScenarioSpec spec = tinySpec("ckptjob5");

    ScenarioRunOptions options;
    options.checkpointPath = ckpt;
    crashThroughPlan(kCrashAfterSecondCheckpoint,
                     [&] { runScenario(spec, options); });

    // A current generation without its crc is one restore skips, so
    // the peek reads the .prev generation too.
    std::string current;
    ASSERT_TRUE(readTextFile(ckpt, current));
    JsonValue stripped = JsonValue::parse(current);
    ASSERT_TRUE(stripped.erase("crc"));
    writeTextFileAtomic(ckpt, stripped.dump(2) + "\n");
    std::optional<CheckpointPeek> peek = peekCheckpoint(ckpt);
    ASSERT_TRUE(peek.has_value());
    EXPECT_EQ(peek->iteration, 4);

    // A kill between the next write's rotate and its atomic write
    // leaves only `.prev`: the peek and the resume both find it.
    writeTextFileAtomic(ckpt, current);
    std::filesystem::rename(ckpt, ckpt + ".prev");
    peek = peekCheckpoint(ckpt);
    ASSERT_TRUE(peek.has_value());
    EXPECT_EQ(peek->fingerprint, scenarioFingerprint(spec));
    EXPECT_EQ(peek->iteration, 8);
    std::atomic<std::int64_t> progress{-1};
    ScenarioRunOptions resume;
    resume.checkpointPath = ckpt;
    resume.shouldStop = [] { return true; };
    resume.progressCounter = &progress;
    EXPECT_TRUE(runScenario(spec, resume).resumed);
    EXPECT_EQ(progress.load(), 9);
}

TEST_F(FaultInjectionTest, CheckpointWithoutCrcFallsBackToLastGood)
{
    const auto dir = scratchDir("ckpt_nocrc");
    const std::string ckpt = (dir / "job.json").string();
    const ScenarioSpec spec = tinySpec("ckptjob4");

    ScenarioRunOptions options;
    options.checkpointPath = ckpt;
    crashThroughPlan(kCrashAfterSecondCheckpoint,
                     [&] { runScenario(spec, options); });

    // Strip the current generation's crc; the body stays valid.
    std::string current;
    ASSERT_TRUE(readTextFile(ckpt, current));
    JsonValue stripped = JsonValue::parse(current);
    ASSERT_TRUE(stripped.erase("crc"));
    writeTextFileAtomic(ckpt, stripped.dump(2) + "\n");

    // Stopping one iteration past the restored one shows which
    // generation carried the resume: 5 from .prev, 9 from the
    // stripped file.
    std::atomic<std::int64_t> progress{-1};
    ScenarioRunOptions resume;
    resume.checkpointPath = ckpt;
    resume.shouldStop = [] { return true; };
    resume.progressCounter = &progress;
    const JobResult stopped = runScenario(spec, resume);
    ASSERT_FALSE(stopped.completed);
    EXPECT_TRUE(stopped.resumed);
    EXPECT_EQ(progress.load(), 5);
}

TEST_F(FaultInjectionTest, BothCheckpointsCorruptMeansFreshStart)
{
    const auto dir = scratchDir("ckpt_both");
    const std::string ckpt = (dir / "job.json").string();
    const ScenarioSpec spec = tinySpec("ckptjob2");
    const JobResult reference = runScenario(spec);

    ScenarioRunOptions options;
    options.checkpointPath = ckpt;
    crashThroughPlan(kCrashAfterSecondCheckpoint,
                     [&] { runScenario(spec, options); });
    writeTextFileAtomic(ckpt, "{\"garbage\": true}");
    writeTextFileAtomic(ckpt + ".prev", "not even json");

    ScenarioRunOptions resume;
    resume.checkpointPath = ckpt;
    const JobResult finished = runScenario(spec, resume);
    ASSERT_TRUE(finished.completed);
    EXPECT_FALSE(finished.resumed);
    EXPECT_EQ(finished.finalEnergy, reference.finalEnergy);
}

TEST_F(FaultInjectionTest, TornCheckpointWriteIsDetectedOnResume)
{
    const auto dir = scratchDir("ckpt_torn");
    const std::string ckpt = (dir / "job.json").string();
    const ScenarioSpec spec = tinySpec("ckptjob3");
    const JobResult reference = runScenario(spec);

    // Tear the *second* checkpoint write through the fault layer, and
    // kill the run right after it: on disk sits a renamed-whole but
    // corrupt current file plus the good first generation.
    ScenarioRunOptions options;
    options.checkpointPath = ckpt;
    crashThroughPlan(
        R"({"faults": [{"site": "checkpoint.write",
        "action": "torn-write", "keepFraction": 0.6, "hit": 2},
        {"site": "checkpoint.written", "action": "crash", "hit": 2}]})",
        [&] { runScenario(spec, options); });

    ScenarioRunOptions resume;
    resume.checkpointPath = ckpt;
    const JobResult finished = runScenario(spec, resume);
    ASSERT_TRUE(finished.completed);
    EXPECT_TRUE(finished.resumed); // .prev carried it
    EXPECT_EQ(finished.finalEnergy, reference.finalEnergy);
}

// ------------------------------------------------ poison-job quarantine

TEST_F(FaultInjectionTest, WorkerQuarantinesPoisonJobAndDrains)
{
    const auto dir = scratchDir("poison");

    std::vector<ScenarioSpec> specs;
    specs.push_back(tinySpec("healthy", 6));
    // The realistic poison shape: a spec that parses and fingerprints
    // fine but throws on every run attempt (the 4-qubit-only minimal
    // UCCSD ansatz against a 6-qubit problem).
    ScenarioSpec poison = tinySpec("poison", 6);
    poison.size = 6;
    poison.ansatz = "uccsd_min";
    specs.push_back(poison);

    WorkerOptions options;
    options.sweepDir = dir.string();
    options.workerId = "w0";
    options.leaseMs = 2000;
    options.maxJobAttempts = 2;
    options.retryBackoffMs = 1;
    WorkerDaemon daemon(options);
    const WorkerReport report = daemon.run(specs);

    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(report.poisoned, 1u);
    EXPECT_EQ(report.failedAttempts, 2u);
    EXPECT_TRUE(report.drained);
    EXPECT_TRUE(report.merged);

    // The poison record is on file, CRC-stamped like any other, and
    // marks the job failed (not completed).
    bool sawPoison = false;
    StoreLoadStats stats;
    for (const JobResult &record :
         ResultStore(sweepStorePath(dir.string())).load(&stats)) {
        if (record.spec.name != "poison")
            continue;
        sawPoison = true;
        EXPECT_TRUE(record.failed);
        EXPECT_FALSE(record.completed);
        EXPECT_FALSE(record.errorMessage.empty());
    }
    EXPECT_TRUE(sawPoison);
    EXPECT_EQ(stats.corrupt(), 0u);
}

} // namespace
} // namespace treevqa
