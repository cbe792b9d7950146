/**
 * @file
 * Tests for the distributed work-claiming execution layer (src/dist/):
 * file-lock claims with lease expiry and stale takeover, the worker
 * daemon's scan→claim→run→record loop, per-worker store shards and
 * their deterministic merge/compaction, and the invariant the whole
 * layer exists to keep — any worker count, any kill schedule, same
 * final energies as a single-process JobScheduler run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "common/event_log.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "dist/store_merge.h"
#include "dist/work_claim.h"
#include "dist/worker_daemon.h"
#include "svc/job_scheduler.h"
#include "svc/result_store.h"
#include "svc/sweep_dir.h"
#include "svc/sweep_index.h"

#include "plan_crash.h"

namespace treevqa {
namespace {

// ------------------------------------------------------------- helpers

std::filesystem::path
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / ("dist_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** SIGKILL right after the first durable checkpoint of the run. */
constexpr const char *kCrashAfterFirstCheckpoint =
    R"({"faults": [{"site": "checkpoint.written", "action": "crash",
    "hit": 1}]})";

/** A tiny, fast scenario (4-qubit TFIM, 1-layer HEA, SPSA). */
ScenarioSpec
tinySpec(const std::string &name, double field, int iterations = 12)
{
    ScenarioSpec spec;
    spec.name = name;
    spec.problem = "tfim";
    spec.size = 4;
    spec.field = field;
    spec.ansatz = "hea";
    spec.layers = 1;
    spec.engine.shotsPerTerm = 256;
    spec.maxIterations = iterations;
    spec.seed = 99;
    spec.checkpointInterval = 4;
    return spec;
}

std::vector<ScenarioSpec>
tinySweep(int jobs = 4)
{
    std::vector<ScenarioSpec> specs;
    for (int j = 0; j < jobs; ++j)
        specs.push_back(
            tinySpec("job" + std::to_string(j), 0.5 + 0.2 * j));
    return specs;
}

void
expectJobsBitIdentical(const JobResult &a, const JobResult &b)
{
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.shotsUsed, b.shotsUsed);
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
    for (std::size_t i = 0; i < a.trajectory.size(); ++i)
        EXPECT_EQ(a.trajectory[i], b.trajectory[i]) << "iteration " << i;
    EXPECT_EQ(a.bestLoss, b.bestLoss);
    ASSERT_EQ(a.bestParams.size(), b.bestParams.size());
    for (std::size_t i = 0; i < a.bestParams.size(); ++i)
        EXPECT_EQ(a.bestParams[i], b.bestParams[i]) << "param " << i;
    EXPECT_EQ(a.finalEnergy, b.finalEnergy);
}

/** Single-process reference run of the same sweep in its own dir. */
std::vector<JobResult>
referenceRun(const std::vector<ScenarioSpec> &specs,
             const std::string &name)
{
    SchedulerConfig config;
    config.outDir = scratchDir(name).string();
    return JobScheduler(config).run(specs).jobs;
}

// ------------------------------------------------------------ file util

TEST(FileUtil, ExclusiveCreateAdmitsExactlyOneWriter)
{
    const auto dir = scratchDir("excl");
    const std::string path = (dir / "token").string();
    EXPECT_TRUE(tryCreateExclusiveText(path, "first"));
    EXPECT_FALSE(tryCreateExclusiveText(path, "second"));
    std::string content;
    ASSERT_TRUE(readTextFile(path, content));
    EXPECT_EQ(content, "first");
}

TEST(FileUtil, AtomicWriteReplacesWholeFile)
{
    const auto dir = scratchDir("atomic");
    const std::string path = (dir / "f").string();
    writeTextFileAtomic(path, "one");
    writeTextFileAtomic(path, "two");
    std::string content;
    ASSERT_TRUE(readTextFile(path, content));
    EXPECT_EQ(content, "two");
    // No staging temp left behind.
    std::size_t entries = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        (void)entry;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
}

TEST(FileUtil, SanitizeFileTokenStripsSeparators)
{
    EXPECT_EQ(sanitizeFileToken("host-1_a.B"), "host-1_a.B");
    EXPECT_EQ(sanitizeFileToken("../evil/../x"), ".._evil_.._x");
    EXPECT_EQ(sanitizeFileToken("a b:c"), "a_b_c");
}

// ----------------------------------------------------------- work claim

TEST(WorkClaim, AcquireIsExclusiveUntilReleased)
{
    const auto dir = scratchDir("claim_excl");
    auto first = WorkClaim::tryAcquire(dir.string(), "fp1", "alice",
                                       60000);
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(first->held());
    EXPECT_EQ(first->info().owner, "alice");

    bool reaped = true;
    EXPECT_FALSE(WorkClaim::tryAcquire(dir.string(), "fp1", "bob",
                                       60000, &reaped)
                     .has_value());
    EXPECT_FALSE(reaped);
    // A different fingerprint is independent.
    EXPECT_TRUE(WorkClaim::tryAcquire(dir.string(), "fp2", "bob",
                                      60000)
                    .has_value());

    first->release();
    EXPECT_FALSE(first->held());
    EXPECT_TRUE(WorkClaim::tryAcquire(dir.string(), "fp1", "bob",
                                      60000)
                    .has_value());
}

TEST(WorkClaim, RenewExtendsTheDeadline)
{
    const auto dir = scratchDir("claim_renew");
    auto claim = WorkClaim::tryAcquire(dir.string(), "fp", "w", 60000);
    ASSERT_TRUE(claim.has_value());
    const std::int64_t before = claim->info().deadlineMs;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(claim->renew());
    const auto peeked = WorkClaim::peek(dir.string(), "fp");
    ASSERT_TRUE(peeked.has_value());
    EXPECT_GT(peeked->deadlineMs, before);
    EXPECT_EQ(peeked->renewals, 1);
    EXPECT_EQ(peeked->owner, "w");
}

TEST(WorkClaim, StaleLeaseIsReapedAndLoserLearnsIt)
{
    const auto dir = scratchDir("claim_stale");
    auto dead = WorkClaim::tryAcquire(dir.string(), "fp", "crashed",
                                      20);
    ASSERT_TRUE(dead.has_value());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    bool reaped = false;
    auto taken = WorkClaim::tryAcquire(dir.string(), "fp", "survivor",
                                       60000, &reaped);
    ASSERT_TRUE(taken.has_value());
    EXPECT_TRUE(reaped);
    EXPECT_EQ(taken->info().owner, "survivor");

    // The original holder discovers the loss on its next heartbeat and
    // must not delete the new owner's lock on release.
    EXPECT_FALSE(dead->renew());
    dead->release();
    const auto peeked = WorkClaim::peek(dir.string(), "fp");
    ASSERT_TRUE(peeked.has_value());
    EXPECT_EQ(peeked->owner, "survivor");
}

TEST(WorkClaim, ReleaseReadsTheLockOnlyPastTwoThirdsOfTheLease)
{
    const auto dir = scratchDir("claim_release_read");
    const Counter &read_opens =
        MetricsRegistry::instance().counter("io.read_opens");

    // Most of the lease left: no reaper can have taken it, so the lock
    // is unlinked without being read back.
    auto fresh = WorkClaim::tryAcquire(dir.string(), "fresh", "w1",
                                       60000);
    ASSERT_TRUE(fresh.has_value());
    const std::uint64_t reads = read_opens.total();
    fresh->release();
    EXPECT_EQ(read_opens.total(), reads);
    EXPECT_FALSE(WorkClaim::peek(dir.string(), "fresh").has_value());

    // Past the margin the release reads, and a reaper's claim survives
    // it even though this holder never learned of the takeover.
    auto late = WorkClaim::tryAcquire(dir.string(), "late", "w1", 30);
    ASSERT_TRUE(late.has_value());
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    bool reaped = false;
    auto taken = WorkClaim::tryAcquire(dir.string(), "late", "reaper",
                                       60000, &reaped);
    ASSERT_TRUE(taken.has_value());
    EXPECT_TRUE(reaped);
    late->release();
    const auto held = WorkClaim::peek(dir.string(), "late");
    ASSERT_TRUE(held.has_value());
    EXPECT_EQ(held->owner, "reaper");

    // The fault site still fires ahead of the unread unlink.
    auto kept = WorkClaim::tryAcquire(dir.string(), "kept", "w1", 60000);
    ASSERT_TRUE(kept.has_value());
    FaultInjection::instance().arm(
        R"({"faults": [{"site": "claim.release", "action": "fail-errno", "errno": "EIO", "hit": 1}]})");
    kept->release();
    FaultInjection::instance().disarm();
    EXPECT_TRUE(WorkClaim::peek(dir.string(), "kept").has_value());
    EXPECT_FALSE(kept->held());
}

TEST(WorkClaim, TornClaimFileIsReapable)
{
    const auto dir = scratchDir("claim_torn");
    const std::string path = WorkClaim::claimPath(dir.string(), "fp");
    {
        std::ofstream torn(path);
        torn << "{\"owner\": \"half-writ";
    }
    bool reaped = false;
    auto claim = WorkClaim::tryAcquire(dir.string(), "fp", "w", 60000,
                                       &reaped);
    ASSERT_TRUE(claim.has_value());
    EXPECT_TRUE(reaped);
}

TEST(WorkClaim, EmptyClaimIsContendedUntilTheGraceHasPassed)
{
    // An empty lock is what a live creator shows between its O_EXCL
    // create and its write: reaping it would admit two owners.
    const auto dir = scratchDir("claim_empty");
    const std::string path = WorkClaim::claimPath(dir.string(), "fp");
    std::ofstream(path).close();
    bool reaped = false;
    EXPECT_FALSE(WorkClaim::tryAcquire(dir.string(), "fp", "w", 60000,
                                       &reaped)
                     .has_value());
    EXPECT_FALSE(reaped);

    // Left empty past the grace, its creator is dead: reapable.
    std::filesystem::last_write_time(
        path, std::filesystem::last_write_time(path)
                  - std::chrono::milliseconds(2 * kClaimSkewGraceMs));
    const auto claim = WorkClaim::tryAcquire(dir.string(), "fp", "w",
                                             60000, &reaped);
    ASSERT_TRUE(claim.has_value());
    EXPECT_TRUE(reaped);
}

TEST(WorkClaim, InfoJsonRoundTrips)
{
    const auto dir = scratchDir("claim_roundtrip");
    ClaimInfo info;
    info.fingerprint = "abc123";
    info.owner = "host-42";
    info.acquiredMs = 1753660800000;
    info.deadlineMs = 1753660830000;
    info.leaseMs = 30000;
    info.renewals = 7;
    const std::string path = (dir / "abc123.lock").string();
    writeTextFileAtomic(path, claimToJson(info).dump() + "\n");
    const std::optional<ClaimInfo> read = readClaimFile(path);
    ASSERT_TRUE(read.has_value());
    const ClaimInfo &back = *read;
    EXPECT_EQ(back.fingerprint, info.fingerprint);
    EXPECT_EQ(back.owner, info.owner);
    EXPECT_EQ(back.acquiredMs, info.acquiredMs);
    EXPECT_EQ(back.deadlineMs, info.deadlineMs);
    EXPECT_EQ(back.leaseMs, info.leaseMs);
    EXPECT_EQ(back.renewals, info.renewals);
}

TEST(WorkClaim, ClaimMissingProgressOrHlcIsTornAndReapable)
{
    // Every writer stamps `progress` and `hlc`; a live-looking claim
    // without either is malformed, so it reads as torn and the next
    // claimant reaps it at once instead of waiting out its lease.
    const auto dir = scratchDir("claim_missing_field");
    for (const char *field : {"progress", "hlc"}) {
        ClaimInfo held;
        held.fingerprint = std::string("fp-") + field;
        held.owner = "old";
        held.acquiredMs = unixTimeMs();
        held.deadlineMs = held.acquiredMs + 60000;
        held.leaseMs = 60000;
        JsonValue json = claimToJson(held);
        ASSERT_TRUE(json.erase(field));
        const std::string path =
            WorkClaim::claimPath(dir.string(), held.fingerprint);
        writeTextFileAtomic(path, json.dump() + "\n");
        EXPECT_FALSE(readClaimFile(path).has_value()) << field;

        bool reaped = false;
        const auto claim = WorkClaim::tryAcquire(
            dir.string(), held.fingerprint, "new", 60000, &reaped);
        ASSERT_TRUE(claim.has_value()) << field;
        EXPECT_TRUE(reaped) << field;
        EXPECT_EQ(claim->info().owner, "new");
    }
}

TEST(WorkClaim, ListClaimsReturnsParseableLocksSortedWithPaths)
{
    const auto dir = scratchDir("list_claims");
    ASSERT_TRUE(WorkClaim::tryAcquire(dir.string(), "fpB", "w1", 60000)
                    .has_value());
    ASSERT_TRUE(WorkClaim::tryAcquire(dir.string(), "fpA", "w2", 60000)
                    .has_value());
    writeTextFileAtomic((dir / "fpC.lock").string(),
                        "{\"owner\": \"half-writ");
    ClaimInfo other;
    other.fingerprint = "fpD";
    other.owner = "w3";
    writeTextFileAtomic((dir / "fpD.json").string(),
                        claimToJson(other).dump() + "\n");

    const std::vector<ClaimFile> claims = listClaims(dir.string());
    ASSERT_EQ(claims.size(), 2u);
    EXPECT_EQ(claims[0].path, WorkClaim::claimPath(dir.string(), "fpA"));
    EXPECT_EQ(claims[0].info.fingerprint, "fpA");
    EXPECT_EQ(claims[0].info.owner, "w2");
    EXPECT_EQ(claims[1].path, WorkClaim::claimPath(dir.string(), "fpB"));
    EXPECT_EQ(claims[1].info.fingerprint, "fpB");
    EXPECT_EQ(claims[1].info.owner, "w1");
}

TEST(WorkClaim, StalenessToleratesClockSkewBothWays)
{
    ClaimInfo info;
    info.leaseMs = 10000;
    info.deadlineMs = 1753660830000;
    const std::int64_t grace = 1000; // < leaseMs/2, used as-is

    // Reaper's clock behind the owner's: deadline still in the
    // reaper's future — never stale.
    EXPECT_FALSE(claimIsStale(info, info.deadlineMs - 5000, grace));
    // Reaper's clock ahead by less than the grace: not stale, the
    // owner may be alive and about to renew.
    EXPECT_FALSE(claimIsStale(info, info.deadlineMs + grace, grace));
    // Past the grace the lease is genuinely dead.
    EXPECT_TRUE(
        claimIsStale(info, info.deadlineMs + grace + 1, grace));

    // Short leases clamp the grace to leaseMs/2 so expiry tests (and
    // fast-reaping fleets) aren't swamped by the skew margin.
    ClaimInfo quick = info;
    quick.leaseMs = 20;
    EXPECT_FALSE(claimIsStale(quick, quick.deadlineMs + 10, grace));
    EXPECT_TRUE(claimIsStale(quick, quick.deadlineMs + 11, grace));
}

TEST(WorkClaim, ImplausiblyFutureDeadlineIsImmediatelyStale)
{
    // A deadline more than leaseMs + grace ahead of the reaper's
    // clock cannot have been written by any owner within the
    // tolerated skew — corrupt content or a runaway clock. It must
    // not pin the lock for an hour.
    ClaimInfo info;
    info.leaseMs = 1000;
    info.deadlineMs = 1753660830000;
    const std::int64_t grace = 400; // min(400, 500) = 400
    const std::int64_t now = info.deadlineMs - 3600000;
    EXPECT_TRUE(claimIsStale(info, now, grace));
    // Right at the plausibility bound it is a normal live lease.
    EXPECT_FALSE(claimIsStale(
        info, info.deadlineMs - info.leaseMs - grace, grace));
}

TEST(WorkClaim, ReaperAheadOfOwnerDoesNotStealLiveLease)
{
    const auto dir = scratchDir("claim_skew_ahead");
    // Simulate an owner whose clock runs ~1.5s behind ours: the
    // deadline it wrote is already past on our clock, but within the
    // skew grace for its 60s lease.
    ClaimInfo owner;
    owner.fingerprint = "fp";
    owner.owner = "slow-clock";
    owner.leaseMs = 60000;
    owner.acquiredMs = unixTimeMs() - 61500;
    owner.deadlineMs = unixTimeMs() - 1500;
    writeTextFileAtomic(WorkClaim::claimPath(dir.string(), "fp"),
                        claimToJson(owner).dump() + "\n");

    // Default grace (1000ms) — expired beyond it, reapable.
    bool reaped = false;
    EXPECT_TRUE(WorkClaim::tryAcquire(dir.string(), "fp", "us", 60000,
                                      &reaped)
                    .has_value());
    EXPECT_TRUE(reaped);

    // With a grace that covers the skew, the lease is respected.
    writeTextFileAtomic(WorkClaim::claimPath(dir.string(), "fp2"),
                        claimToJson(owner).dump() + "\n");
    EXPECT_FALSE(WorkClaim::tryAcquire(dir.string(), "fp2", "us",
                                       60000, &reaped,
                                       /*skewGraceMs=*/5000)
                     .has_value());
}

TEST(WorkClaim, OwnerAheadOfReaperCannotPinTheLockForever)
{
    const auto dir = scratchDir("claim_skew_behind");
    // An owner whose clock ran far ahead wrote a deadline an hour in
    // our future before dying; its 100ms lease says no honest renewal
    // chain can explain that. The lock must be reapable now.
    ClaimInfo owner;
    owner.fingerprint = "fp";
    owner.owner = "fast-clock";
    owner.leaseMs = 100;
    owner.acquiredMs = unixTimeMs();
    owner.deadlineMs = unixTimeMs() + 3600000;
    writeTextFileAtomic(WorkClaim::claimPath(dir.string(), "fp"),
                        claimToJson(owner).dump() + "\n");

    bool reaped = false;
    auto claim = WorkClaim::tryAcquire(dir.string(), "fp", "us", 60000,
                                       &reaped);
    ASSERT_TRUE(claim.has_value());
    EXPECT_TRUE(reaped);
}

TEST(WorkClaim, DoubleReapRaceAdmitsExactlyOneWinner)
{
    const auto dir = scratchDir("claim_double_reap");
    // Two contenders race to reap the same stale claim, repeatedly:
    // the rename protocol must admit exactly one per round, and the
    // loser must see a clean "not acquired", never a second lease.
    for (int round = 0; round < 25; ++round) {
        const std::string fp = "fp" + std::to_string(round);
        ClaimInfo dead;
        dead.fingerprint = fp;
        dead.owner = "crashed";
        dead.leaseMs = 20;
        dead.acquiredMs = unixTimeMs() - 1000;
        dead.deadlineMs = unixTimeMs() - 980;
        writeTextFileAtomic(WorkClaim::claimPath(dir.string(), fp),
                            claimToJson(dead).dump() + "\n");

        std::atomic<int> wins{0};
        std::atomic<int> reaps{0};
        const auto contender = [&](const std::string &owner) {
            bool reaped = false;
            auto claim = WorkClaim::tryAcquire(dir.string(), fp,
                                               owner, 60000, &reaped);
            if (claim.has_value()) {
                ++wins;
                if (reaped)
                    ++reaps;
            }
        };
        std::thread a(contender, "alice");
        std::thread b(contender, "bob");
        a.join();
        b.join();
        ASSERT_EQ(wins.load(), 1) << "round " << round;
        // Reap attribution is best-effort: the loser's rename may
        // clear the stale lock just before the winner's fresh O_EXCL
        // create, in which case the winner never saw the old claim.
        // What must never happen is two contenders both counting it.
        ASSERT_LE(reaps.load(), 1) << "round " << round;
        const auto peeked = WorkClaim::peek(dir.string(), fp);
        ASSERT_TRUE(peeked.has_value());
        EXPECT_TRUE(peeked->owner == "alice"
                    || peeked->owner == "bob");
    }
}

// -------------------------------------------------- store dedup + merge

TEST(ResultStoreDedupe, KeepsTheNewestCompleteRecord)
{
    JobResult stale;
    stale.spec = tinySpec("dup", 1.0);
    stale.fingerprint = "F";
    stale.completed = false;
    stale.iterations = 3;

    JobResult complete = stale;
    complete.completed = true;
    complete.iterations = 12;

    JobResult other;
    other.spec = tinySpec("other", 0.5);
    other.fingerprint = "G";
    other.completed = true;
    other.iterations = 12;

    // Incomplete-then-complete: the complete one wins.
    auto deduped = dedupeByFingerprint({stale, other, complete});
    ASSERT_EQ(deduped.size(), 2u);
    EXPECT_EQ(deduped[0].fingerprint, "F");
    EXPECT_TRUE(deduped[0].completed);
    EXPECT_EQ(deduped[1].fingerprint, "G");

    // Complete-then-incomplete: the complete one still wins.
    deduped = dedupeByFingerprint({complete, stale});
    ASSERT_EQ(deduped.size(), 1u);
    EXPECT_TRUE(deduped[0].completed);

    // Two complete duplicates: the later (newer) one wins.
    JobResult newer = complete;
    newer.iterations = 24;
    deduped = dedupeByFingerprint({complete, newer});
    ASSERT_EQ(deduped.size(), 1u);
    EXPECT_EQ(deduped[0].iterations, 24);
}

TEST(StoreMerge, FoldsShardsIntoTheCanonicalStore)
{
    const auto dir = scratchDir("merge");
    std::filesystem::create_directories(sweepShardDir(dir.string()));

    const JobResult a = runScenario(tinySpec("a", 0.7, 6));
    const JobResult b = runScenario(tinySpec("b", 1.1, 6));
    const JobResult c = runScenario(tinySpec("c", 1.5, 6));

    // Canonical holds a; two shards hold b, c, and a duplicate of a.
    ResultStore(sweepStorePath(dir.string())).append(a);
    ResultStore(sweepShardPath(dir.string(), "w1")).append(c);
    ResultStore(sweepShardPath(dir.string(), "w2")).append(b);
    ResultStore(sweepShardPath(dir.string(), "w2")).append(a);

    const std::vector<JobResult> merged =
        loadMergedRecords(dir.string());
    ASSERT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged[0].spec.name, "a"); // name-sorted
    EXPECT_EQ(merged[1].spec.name, "b");
    EXPECT_EQ(merged[2].spec.name, "c");
    expectJobsBitIdentical(merged[0], a);
    expectJobsBitIdentical(merged[1], b);
    expectJobsBitIdentical(merged[2], c);

    // A merge over a possibly-live fleet folds shards but keeps them.
    const SweepMergeStats live = compactSweepStore(dir.string(), false);
    EXPECT_EQ(live.inputRecords, 4u);
    EXPECT_EQ(live.uniqueRecords, 3u);
    EXPECT_EQ(live.shardFiles, 2u);
    EXPECT_TRUE(std::filesystem::exists(
        sweepShardPath(dir.string(), "w1")));

    // The drained-sweep compaction retires the shards.
    const SweepMergeStats stats = compactSweepStore(dir.string(), true);
    EXPECT_EQ(stats.uniqueRecords, 3u);
    EXPECT_FALSE(std::filesystem::exists(
        sweepShardPath(dir.string(), "w1")));
    EXPECT_FALSE(std::filesystem::exists(
        sweepShardPath(dir.string(), "w2")));

    // The compacted canonical store round-trips and the summary is on
    // disk; a second compaction is a byte-identical no-op.
    std::string store_once, summary_once;
    ASSERT_TRUE(readTextFile(sweepStorePath(dir.string()), store_once));
    ASSERT_TRUE(
        readTextFile(sweepSummaryPath(dir.string()), summary_once));
    compactSweepStore(dir.string(), true);
    std::string store_twice, summary_twice;
    ASSERT_TRUE(
        readTextFile(sweepStorePath(dir.string()), store_twice));
    ASSERT_TRUE(
        readTextFile(sweepSummaryPath(dir.string()), summary_twice));
    EXPECT_EQ(store_once, store_twice);
    EXPECT_EQ(summary_once, summary_twice);
    EXPECT_EQ(summary_once,
              sweepSummaryJson(merged).dump(2) + "\n");
}

/** Inode of `path` (0 when it cannot be stat'ed). */
ino_t
inodeOf(const std::string &path)
{
    struct stat st {};
    return ::stat(path.c_str(), &st) == 0 ? st.st_ino : 0;
}

/** store.compaction events in the sweep's journals. */
std::size_t
compactionEvents(const std::string &dir)
{
    EventLog::instance().flush();
    std::size_t count = 0;
    for (const SweepEvent &event : readSweepEvents(dir))
        count += event.type == event_type::kStoreCompaction ? 1 : 0;
    return count;
}

TEST(StoreMerge, CompactionWhoseDrainProofFailsWritesNothing)
{
    const auto dir = scratchDir("merge_unproven");
    const std::string d = dir.string();
    std::filesystem::create_directories(sweepShardDir(d));
    const std::vector<ScenarioSpec> specs = tinySweep(3);
    const std::vector<std::string> fingerprints = fingerprintSpecs(specs);
    // Two of the three jobs are recorded.
    for (std::size_t i = 0; i < 2; ++i) {
        JobResult record;
        record.spec = specs[i];
        record.fingerprint = fingerprints[i];
        record.completed = true;
        ResultStore(sweepShardPath(d, "w" + std::to_string(i)))
            .append(record);
    }
    const DrainProof every_job = [&](const std::vector<JobResult> &records) {
        std::set<std::string> recorded;
        for (const JobResult &record : records)
            recorded.insert(record.fingerprint);
        for (const std::string &fp : fingerprints)
            if (!recorded.count(fp))
                return false;
        return true;
    };

    const SweepMergeStats stats = compactSweepStore(
        d, /*removeMergedShards=*/true, every_job);
    EXPECT_FALSE(stats.written);
    EXPECT_EQ(stats.uniqueRecords, 2u);
    EXPECT_FALSE(std::filesystem::exists(sweepStorePath(d)));
    EXPECT_FALSE(std::filesystem::exists(sweepSummaryPath(d)));
    EXPECT_TRUE(std::filesystem::exists(sweepShardPath(d, "w0")));
    EXPECT_TRUE(std::filesystem::exists(sweepShardPath(d, "w1")));
    EXPECT_EQ(compactionEvents(d), 0u);

    // Once the last job lands, the same proof accepts its own load.
    JobResult last;
    last.spec = specs[2];
    last.fingerprint = fingerprints[2];
    last.completed = true;
    ResultStore(sweepShardPath(d, "w1")).append(last);
    EXPECT_TRUE(
        compactSweepStore(d, /*removeMergedShards=*/true, every_job)
            .written);
    EXPECT_EQ(loadMergedRecords(d).size(), 3u);
    EXPECT_FALSE(std::filesystem::exists(sweepShardPath(d, "w0")));
}

// -------------------------------------------------------- worker daemon

TEST(WorkerDaemon, SingleWorkerDrainsMatchingTheScheduler)
{
    const auto dir = scratchDir("one_worker");
    const std::vector<ScenarioSpec> specs = tinySweep(4);
    const std::vector<JobResult> reference =
        referenceRun(specs, "one_worker_ref");

    WorkerOptions options;
    options.sweepDir = dir.string();
    options.workerId = "w1";
    options.leaseMs = 60000;
    const WorkerReport report = WorkerDaemon(options).run(specs);

    EXPECT_EQ(report.completed, 4u);
    EXPECT_EQ(report.lostClaims, 0u);
    EXPECT_EQ(report.reapedLeases, 0u);
    EXPECT_TRUE(report.drained);
    EXPECT_TRUE(report.merged);

    const std::vector<JobResult> merged =
        loadMergedRecords(dir.string());
    ASSERT_EQ(merged.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectJobsBitIdentical(merged[i], reference[i]);
    // The deterministic summary agrees byte for byte.
    std::string summary;
    ASSERT_TRUE(readTextFile(sweepSummaryPath(dir.string()), summary));
    EXPECT_EQ(summary, sweepSummaryJson(reference).dump(2) + "\n");
    // No claims left behind.
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_FALSE(
            WorkClaim::peek(sweepClaimDir(dir.string()),
                            scenarioFingerprint(specs[i]))
                .has_value());
}

TEST(WorkerDaemon, SecondWorkerOnACompactedSweepRewritesNothing)
{
    const auto dir = scratchDir("no_op_drain");
    const std::string d = dir.string();
    const std::vector<ScenarioSpec> specs = tinySweep(3);

    const auto make_options = [&](const char *id) {
        WorkerOptions options;
        options.sweepDir = d;
        options.workerId = id;
        options.leaseMs = 60000;
        return options;
    };
    ASSERT_TRUE(WorkerDaemon(make_options("w1")).run(specs).merged);
    ASSERT_TRUE(sweepStoreCompacted(d));
    ASSERT_EQ(compactionEvents(d), 1u);

    std::string store, summary;
    ASSERT_TRUE(readTextFile(sweepStorePath(d), store));
    ASSERT_TRUE(readTextFile(sweepSummaryPath(d), summary));
    const ino_t store_inode = inodeOf(sweepStorePath(d));
    const ino_t summary_inode = inodeOf(sweepSummaryPath(d));

    // A drained, compacted sweep: the late worker runs nothing, still
    // reports the merge, and leaves both files untouched.
    const WorkerReport report = WorkerDaemon(make_options("w2")).run(specs);
    EXPECT_EQ(report.completed, 0u);
    EXPECT_TRUE(report.drained);
    EXPECT_TRUE(report.merged);
    std::string store_after, summary_after;
    ASSERT_TRUE(readTextFile(sweepStorePath(d), store_after));
    ASSERT_TRUE(readTextFile(sweepSummaryPath(d), summary_after));
    EXPECT_EQ(store_after, store);
    EXPECT_EQ(summary_after, summary);
    EXPECT_EQ(inodeOf(sweepStorePath(d)), store_inode);
    EXPECT_EQ(inodeOf(sweepSummaryPath(d)), summary_inode);
    EXPECT_EQ(compactionEvents(d), 1u);

    // A store newer than its summary, or any shard left to fold, still
    // needs a compaction.
    namespace fs = std::filesystem;
    fs::last_write_time(sweepStorePath(d),
                        fs::last_write_time(sweepSummaryPath(d))
                            + std::chrono::seconds(1));
    EXPECT_FALSE(sweepStoreCompacted(d));
    fs::last_write_time(sweepSummaryPath(d),
                        fs::last_write_time(sweepStorePath(d)));
    EXPECT_TRUE(sweepStoreCompacted(d));
    writeTextFileAtomic(sweepShardPath(d, "w3"), "");
    EXPECT_FALSE(sweepStoreCompacted(d));
}

TEST(WorkerDaemon, FreshWorkerOnADrainedSweepReadsTheStoreOnce)
{
    const auto dir = scratchDir("drain_proof_reads");
    const std::string d = dir.string();
    const std::vector<ScenarioSpec> specs = tinySweep(4);

    const auto make_options = [&](const char *id) {
        WorkerOptions options;
        options.sweepDir = d;
        options.workerId = id;
        options.leaseMs = 60000;
        options.mergeOnDrain = false;
        return options;
    };
    // One job per scan: every scan after the first folds appends.
    WorkerOptions one_by_one = make_options("w1");
    one_by_one.claimBatch = 1;
    const WorkerReport first = WorkerDaemon(one_by_one).run(specs);
    ASSERT_EQ(first.completed, specs.size());
    ASSERT_TRUE(first.drained);
    ASSERT_FALSE(sweepStoreCompacted(d));

    namespace fs = std::filesystem;
    std::uint64_t store_bytes = 0;
    if (fs::exists(sweepStorePath(d)))
        store_bytes += fs::file_size(sweepStorePath(d));
    for (const auto &entry : fs::directory_iterator(sweepShardDir(d)))
        if (entry.path().extension() == ".jsonl")
            store_bytes += fs::file_size(entry.path());
    ASSERT_GT(store_bytes, 0u);

    // The worker that ran the jobs folded its own commits from
    // memory: its tail reader read none of their bytes back.
    EXPECT_EQ(first.storeBytesRead, 0u);

    // A fresh worker's first view is already a read from offset 0,
    // which is the drain proof: it reads and decodes the store once.
    const Counter &decoded =
        MetricsRegistry::instance().counter("store.lines_decoded");
    const std::uint64_t decoded_before = decoded.total();
    const WorkerReport late = WorkerDaemon(make_options("w2")).run(specs);
    EXPECT_EQ(late.completed, 0u);
    EXPECT_TRUE(late.drained);
    EXPECT_EQ(late.storeBytesRead, store_bytes);
    EXPECT_EQ(decoded.total() - decoded_before, specs.size());
}

/** A no-op job body: a completed record of `spec`, no simulation. */
JobResult
syntheticJob(const ScenarioSpec &spec, const ScenarioRunOptions &)
{
    JobResult record;
    record.spec = spec;
    record.fingerprint = scenarioFingerprint(spec);
    record.completed = true;
    record.iterations = 1;
    record.trajectory = {-spec.field};
    record.finalEnergy = -spec.field;
    return record;
}

TEST(WorkerDaemon, OneWorkerDrainDecodesEachRecordOnce)
{
    // Own commits are folded from memory and the compaction's load is
    // the drain proof, so a drain of N jobs decodes N store lines: the
    // tail reader decodes none, the proof-and-compaction load each
    // record once.
    const auto dir = scratchDir("decode_once");
    std::vector<ScenarioSpec> specs;
    for (int j = 0; j < 24; ++j)
        specs.push_back(tinySpec("d" + std::to_string(j), 0.3 + 0.1 * j));
    WorkerOptions options;
    options.sweepDir = dir.string();
    options.workerId = "w";
    options.leaseMs = 60000;
    options.jobRunner = syntheticJob;

    MetricsRegistry &reg = MetricsRegistry::instance();
    const Counter &decoded = reg.counter("store.lines_decoded");
    const Counter &tail_parsed = reg.counter("store.tail_lines_parsed");
    const std::uint64_t decoded_before = decoded.total();
    const std::uint64_t tail_before = tail_parsed.total();
    const WorkerReport report = WorkerDaemon(options).run(specs);
    EXPECT_EQ(report.completed, specs.size());
    EXPECT_TRUE(report.drained);
    EXPECT_TRUE(report.merged);
    EXPECT_EQ(report.storeBytesRead, 0u);
    EXPECT_EQ(tail_parsed.total() - tail_before, 0u);
    EXPECT_EQ(decoded.total() - decoded_before, specs.size());
    EXPECT_EQ(loadMergedRecords(dir.string()).size(), specs.size());
}

TEST(WorkerDaemon, TornAppendIsNotFoldedAndItsJobsRerun)
{
    const auto dir = scratchDir("torn_append");
    const std::string d = dir.string();
    const std::vector<ScenarioSpec> specs = tinySweep(8);
    const std::vector<JobResult> reference =
        referenceRun(specs, "torn_append_ref");

    WorkerOptions options;
    options.sweepDir = d;
    options.workerId = "w";
    options.leaseMs = 60000;
    const Counter &tail_parsed =
        MetricsRegistry::instance().counter("store.tail_lines_parsed");
    const std::uint64_t tail_before = tail_parsed.total();
    const Counter &jobs_completed =
        MetricsRegistry::instance().counter("worker.jobs_completed");
    const std::uint64_t completed_before = jobs_completed.total();
    // The first batch's one append keeps 40% of its bytes.
    FaultInjection::instance().arm(
        R"({"faults": [{"site": "store.append", "action": "torn-write", "keepFraction": 0.4, "hit": 1}]})");
    const WorkerReport report = WorkerDaemon(options).run(specs);
    FaultInjection::instance().disarm();

    EXPECT_TRUE(report.drained);
    EXPECT_TRUE(report.merged);
    // The torn batch was not folded from memory: the tail reader read
    // it back, and the jobs whose lines tore stayed pending and ran
    // again. Only records that landed count, so every job counts once.
    EXPECT_GT(tail_parsed.total() - tail_before, 0u);
    EXPECT_EQ(report.completed, specs.size());
    // The journal and the counters agree with the store: one
    // job.completed per job, and the counter counts exactly those.
    std::set<std::string> completed_jobs;
    std::size_t completed_events = 0;
    for (const SweepEvent &event : readSweepEvents(d))
        if (event.type == event_type::kJobCompleted) {
            completed_jobs.insert(event.job);
            ++completed_events;
        }
    EXPECT_EQ(completed_events, specs.size());
    EXPECT_EQ(jobs_completed.total() - completed_before,
              completed_jobs.size());
    EXPECT_EQ(completed_jobs.size(), specs.size());
    std::string summary;
    ASSERT_TRUE(readTextFile(sweepSummaryPath(d), summary));
    EXPECT_EQ(summary, sweepSummaryJson(reference).dump(2) + "\n");
    // The torn line was quarantined once, and its shard kept as
    // evidence.
    std::string envelopes;
    ASSERT_TRUE(readTextFile(
        (std::filesystem::path(d) / "quarantine" / "w.jsonl").string(),
        envelopes));
    EXPECT_EQ(std::count(envelopes.begin(), envelopes.end(), '\n'), 1);
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(d) / "quarantine" / "w.jsonl.shard"));
}

TEST(WorkerDaemon, DrainProofThatMissesAJobWritesNothingAndKeepsScanning)
{
    const auto dir = scratchDir("proof_misses");
    const std::string d = dir.string();
    const std::vector<ScenarioSpec> specs = tinySweep(4);
    const std::vector<JobResult> reference =
        referenceRun(specs, "proof_misses_ref");

    WorkerOptions options;
    options.sweepDir = d;
    options.workerId = "w";
    options.leaseMs = 60000;
    options.claimBatch = 1;
    // Bit rot under a record the view already holds from memory: the
    // second job flips a byte of the first committed line in place
    // (same inode, same size), so the view still says drained while
    // the store on disk lacks that job.
    const std::string shard = sweepShardPath(d, "w");
    bool flipped = false;
    options.jobRunner = [&](const ScenarioSpec &spec,
                            const ScenarioRunOptions &run) {
        if (!flipped && std::filesystem::exists(shard)) {
            std::fstream io(shard,
                            std::ios::in | std::ios::out | std::ios::binary);
            io.seekp(9); // inside the first record's "name" value
            io.put('X');
            flipped = true;
        }
        return runScenario(spec, run);
    };
    const WorkerReport report = WorkerDaemon(options).run(specs);

    ASSERT_TRUE(flipped);
    EXPECT_TRUE(report.drained);
    EXPECT_TRUE(report.merged);
    // The failed proof wrote nothing and forced a rescan, which found
    // the job pending and ran it again.
    EXPECT_EQ(report.completed, specs.size() + 1);
    EXPECT_GE(report.fullRescans, 1u);
    EXPECT_EQ(compactionEvents(d), 1u);
    std::string summary;
    ASSERT_TRUE(readTextFile(sweepSummaryPath(d), summary));
    EXPECT_EQ(summary, sweepSummaryJson(reference).dump(2) + "\n");
}

TEST(WorkerDaemon, TwoConcurrentWorkersShareOneSweep)
{
    const auto dir = scratchDir("two_workers");
    const std::vector<ScenarioSpec> specs = tinySweep(6);
    const std::vector<JobResult> reference =
        referenceRun(specs, "two_workers_ref");

    const auto make_options = [&](const char *id) {
        WorkerOptions options;
        options.sweepDir = dir.string();
        options.workerId = id;
        options.leaseMs = 60000; // never expires within the test
        options.pollMs = 5;
        return options;
    };
    WorkerDaemon wa(make_options("wa"));
    WorkerDaemon wb(make_options("wb"));
    WorkerReport ra, rb;
    std::thread ta([&] { ra = wa.run(specs); });
    std::thread tb([&] { rb = wb.run(specs); });
    ta.join();
    tb.join();

    // Every job ran exactly once across the fleet (no lease expired,
    // so no double work), and both workers saw the sweep drained.
    EXPECT_EQ(ra.completed + rb.completed, specs.size());
    EXPECT_EQ(ra.lostClaims + rb.lostClaims, 0u);
    EXPECT_TRUE(ra.drained);
    EXPECT_TRUE(rb.drained);

    const std::vector<JobResult> merged =
        loadMergedRecords(dir.string());
    ASSERT_EQ(merged.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectJobsBitIdentical(merged[i], reference[i]);
    std::string summary;
    ASSERT_TRUE(readTextFile(sweepSummaryPath(dir.string()), summary));
    EXPECT_EQ(summary, sweepSummaryJson(reference).dump(2) + "\n");
}

TEST(WorkerDaemon, CrashedWorkersJobIsReclaimedFromItsCheckpoint)
{
    const auto dir = scratchDir("takeover");
    const std::vector<ScenarioSpec> specs = tinySweep(3);
    const std::vector<JobResult> reference =
        referenceRun(specs, "takeover_ref");

    // Worker A is SIGKILLed mid-job, right after its first job's
    // first durable checkpoint (iteration 4), holding its claim.
    WorkerOptions crash_options;
    crash_options.sweepDir = dir.string();
    crash_options.workerId = "crasher";
    crash_options.leaseMs = 200;
    // One claim at a time so exactly one (the crashed job's) is left;
    // BatchedClaimCrashAbandonsTheWholeBatch covers claimBatch > 1.
    crash_options.claimBatch = 1;
    crashThroughPlan(kCrashAfterFirstCheckpoint,
                     [&] { WorkerDaemon(crash_options).run(specs); });
    EXPECT_TRUE(loadMergedRecords(dir.string()).empty());

    // Exactly one claim (the crashed job's) and its checkpoint remain.
    std::size_t leftover_claims = 0;
    std::string crashed_fp;
    for (const ScenarioSpec &spec : specs) {
        const std::string fp = scenarioFingerprint(spec);
        if (WorkClaim::peek(sweepClaimDir(dir.string()), fp)) {
            ++leftover_claims;
            crashed_fp = fp;
        }
    }
    ASSERT_EQ(leftover_claims, 1u);
    const auto peeked =
        peekCheckpoint(sweepCheckpointPath(dir.string(), crashed_fp));
    ASSERT_TRUE(peeked.has_value());
    EXPECT_EQ(peeked->fingerprint, crashed_fp);
    EXPECT_EQ(peeked->iteration, 4);

    // The survivor waits out the stale lease, reaps it, resumes the
    // job from the checkpoint, and drains the rest of the sweep.
    WorkerOptions survivor_options;
    survivor_options.sweepDir = dir.string();
    survivor_options.workerId = "survivor";
    survivor_options.leaseMs = 60000;
    survivor_options.pollMs = 10;
    const WorkerReport survived =
        WorkerDaemon(survivor_options).run(specs);
    EXPECT_EQ(survived.completed, specs.size());
    EXPECT_GE(survived.reapedLeases, 1u);
    EXPECT_GE(survived.resumed, 1u);
    EXPECT_TRUE(survived.drained);
    EXPECT_TRUE(survived.merged);

    // The kill schedule is invisible in the results: bit-identical to
    // the uninterrupted single-process run, including the job that
    // crossed two workers.
    const std::vector<JobResult> merged =
        loadMergedRecords(dir.string());
    ASSERT_EQ(merged.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectJobsBitIdentical(merged[i], reference[i]);
    std::string summary;
    ASSERT_TRUE(readTextFile(sweepSummaryPath(dir.string()), summary));
    EXPECT_EQ(summary, sweepSummaryJson(reference).dump(2) + "\n");
}

TEST(WorkerDaemon, SkipsJobsAlreadyRecordedAndStopsAtMaxJobs)
{
    const auto dir = scratchDir("skip");
    const std::vector<ScenarioSpec> specs = tinySweep(4);

    WorkerOptions options;
    options.sweepDir = dir.string();
    options.workerId = "first";
    options.leaseMs = 60000;
    options.maxJobs = 1;
    options.mergeOnDrain = false;
    const WorkerReport first = WorkerDaemon(options).run(specs);
    EXPECT_EQ(first.completed, 1u);
    EXPECT_FALSE(first.drained);

    options.workerId = "second";
    options.maxJobs = 0;
    const WorkerReport second = WorkerDaemon(options).run(specs);
    EXPECT_EQ(second.completed, specs.size() - 1);
    EXPECT_TRUE(second.drained);

    // A third worker finds nothing to do.
    options.workerId = "third";
    const WorkerReport third = WorkerDaemon(options).run(specs);
    EXPECT_EQ(third.completed, 0u);
    EXPECT_TRUE(third.drained);
}

TEST(WorkerDaemon, RejectsBadOptionsAndDuplicateSpecs)
{
    WorkerOptions no_dir;
    EXPECT_THROW(WorkerDaemon{no_dir}, std::invalid_argument);

    WorkerOptions bad_id;
    bad_id.sweepDir = scratchDir("bad_id").string();
    bad_id.workerId = "no/slashes allowed";
    EXPECT_THROW(WorkerDaemon{bad_id}, std::invalid_argument);

    WorkerOptions options;
    options.sweepDir = scratchDir("dup_specs").string();
    options.workerId = "w";
    const std::vector<ScenarioSpec> dupes = {tinySpec("same", 1.0),
                                             tinySpec("same", 1.0)};
    EXPECT_THROW(WorkerDaemon(options).run(dupes),
                 std::invalid_argument);
}

TEST(WorkerDaemon, LoadsSweepSpecsFromTheSharedDirectory)
{
    // WorkerDaemon::run() reads its job list through SweepIndex.
    const auto dir = scratchDir("spec_file");
    SweepIndex index(dir.string());
    EXPECT_THROW(index.refresh(), std::runtime_error);
    writeTextFileAtomic(
        sweepSpecPath(dir.string()),
        R"({"name": "s", "problem": "tfim", "size": 4,
            "sweep": {"field": [0.5, 1.0]}})");
    index.refresh();
    const std::vector<ScenarioSpec> &specs = index.specs();
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].name, "s/field=0.5");
}

// ---------------------------------------------- fleet robustness layer

TEST(WorkClaim, RenewStampsMonotonicProgressIntoTheClaim)
{
    const auto dir = scratchDir("progress");
    auto claim = WorkClaim::tryAcquire(dir.string(), "FP", "w", 60000);
    ASSERT_TRUE(claim.has_value());
    EXPECT_EQ(claim->info().progress, -1);

    ASSERT_TRUE(claim->renew(3));
    auto peeked = WorkClaim::peek(dir.string(), "FP");
    ASSERT_TRUE(peeked.has_value());
    EXPECT_EQ(peeked->progress, 3);

    // A renewal without a progress value keeps the previous stamp —
    // the watchdog distinguishes "lease alive, job frozen" from
    // "lease alive, job advancing".
    ASSERT_TRUE(claim->renew());
    peeked = WorkClaim::peek(dir.string(), "FP");
    ASSERT_TRUE(peeked.has_value());
    EXPECT_EQ(peeked->progress, 3);

    ASSERT_TRUE(claim->renew(7));
    peeked = WorkClaim::peek(dir.string(), "FP");
    ASSERT_TRUE(peeked.has_value());
    EXPECT_EQ(peeked->progress, 7);

    // And the stamp round-trips through the JSON claim format.
    const ClaimInfo back = claimFromJson(claimToJson(*peeked));
    EXPECT_EQ(back.progress, 7);
    claim->release();
}

TEST(WorkerDaemon, JitteredPollIsDeterministicAndBounded)
{
    // Same identity, same jitter — poll cadence must never introduce
    // run-to-run nondeterminism.
    EXPECT_EQ(jitteredPollMs(200, "w0"), jitteredPollMs(200, "w0"));
    // Distinct identities land in [0.75, 1.25] * pollMs, never below
    // 1 ms, and actually spread (not all on one value).
    std::set<std::int64_t> seen;
    for (int k = 0; k < 16; ++k) {
        const std::int64_t ms =
            jitteredPollMs(200, "worker-" + std::to_string(k));
        EXPECT_GE(ms, 150);
        EXPECT_LE(ms, 250);
        seen.insert(ms);
    }
    EXPECT_GT(seen.size(), 4u);
    EXPECT_GE(jitteredPollMs(1, "w"), 1);
}

TEST(ResultStoreDedupe, AccumulatesFailedAttemptsAcrossRecords)
{
    JobResult one;
    one.spec = tinySpec("poison", 1.0);
    one.fingerprint = "F";
    one.failed = true;
    one.attempts = 1;
    one.timedOut = true;

    JobResult two = one;
    two.attempts = 2;
    two.timedOut = false;

    // Two failure records of the same job from different workers: the
    // fleet-wide budget sees their *sum*, and timedOut is sticky.
    auto deduped = dedupeByFingerprint({one, two});
    ASSERT_EQ(deduped.size(), 1u);
    EXPECT_TRUE(deduped[0].failed);
    EXPECT_EQ(deduped[0].attempts, 3);
    EXPECT_TRUE(deduped[0].timedOut);

    // A failed record that accounts for no attempt never reaches the
    // fold: its stored line is rejected as malformed.
    JobResult zero = one;
    zero.spec = tinySpec("zero", 1.0);
    zero.fingerprint = scenarioFingerprint(zero.spec);
    zero.attempts = 0;
    JobResult decoded;
    EXPECT_EQ(decodeStoredLine(jobResultToStoredLine(zero), decoded),
              StoredLineStatus::ParseFailure);

    // A completed record supersedes the failure history outright.
    JobResult done;
    done.spec = one.spec;
    done.fingerprint = "F";
    done.completed = true;
    deduped = dedupeByFingerprint({one, done, two});
    ASSERT_EQ(deduped.size(), 1u);
    EXPECT_TRUE(deduped[0].completed);
    EXPECT_FALSE(deduped[0].failed);
}

TEST(ResultStoreDedupe, FoldRuleSettlesFormerDisagreements)
{
    JobResult failed;
    failed.spec = tinySpec("settle", 1.0);
    failed.fingerprint = "F";
    failed.failed = true;
    failed.attempts = 2;
    failed.errorMessage = "boom";

    // Failed then a halted partial: the failure outranks the partial,
    // so the job keeps its failure verdict instead of turning pending.
    JobResult partial;
    partial.spec = failed.spec;
    partial.fingerprint = "F";
    partial.iterations = 4;
    auto deduped = dedupeByFingerprint({failed, partial});
    ASSERT_EQ(deduped.size(), 1u);
    EXPECT_TRUE(deduped[0].failed);
    EXPECT_EQ(deduped[0].attempts, 2);
    EXPECT_EQ(deduped[0].errorMessage, "boom");
    JobResolution r;
    r.fold(failed);
    EXPECT_FALSE(r.fold(partial));
    EXPECT_TRUE(r.failed);
    EXPECT_EQ(r.attempts, 2);

    // Two completed records: the later body wins in both views.
    JobResult first;
    first.spec = failed.spec;
    first.fingerprint = "G";
    first.completed = true;
    first.iterations = 12;
    JobResult later = first;
    later.iterations = 24;
    deduped = dedupeByFingerprint({first, later});
    ASSERT_EQ(deduped.size(), 1u);
    EXPECT_EQ(deduped[0].iterations, 24);
    JobResolution done;
    done.fold(first);
    EXPECT_TRUE(done.fold(later));
    EXPECT_EQ(done.iterations, 24);
}

TEST(WorkerDaemon, ResolutionsHonorTheFleetBudget)
{
    JobResult done;
    done.fingerprint = "DONE";
    done.completed = true;

    JobResult partial;
    partial.fingerprint = "PARTIAL";
    partial.failed = true;
    partial.attempts = 2;

    JobResolution completed;
    completed.fold(done);
    JobResolution failing;
    failing.fold(partial);
    const JobResolution absent;

    // Budget 3: two recorded attempts leave one to spend — the job is
    // still pending fleet-wide.
    EXPECT_TRUE(completed.resolved(3));
    EXPECT_FALSE(failing.resolved(3));
    EXPECT_FALSE(absent.resolved(3));
    // Budget 2: the partial failure is now spent too.
    EXPECT_TRUE(failing.resolved(2));

    EXPECT_EQ(failing.priorAttempts(), 2);
    EXPECT_EQ(completed.priorAttempts(), 0);
    EXPECT_EQ(absent.priorAttempts(), 0);
}

TEST(WorkerDaemon, PoisonBudgetIsFleetWideAcrossWorkers)
{
    const auto dir = scratchDir("fleet_budget");
    const std::vector<ScenarioSpec> specs = tinySweep(2);
    const std::vector<JobResult> reference =
        referenceRun(specs, "fleet_budget_ref");

    // Worker A: every attempt throws; budget 2 → both jobs poisoned
    // with attempt-carrying records.
    FaultInjection::instance().arm(
        R"({"seed": 1, "faults": [{"site": "worker.job",
            "action": "fail-errno", "errno": "EIO",
            "hit": 1, "times": 0}]})");
    WorkerOptions options;
    options.sweepDir = dir.string();
    options.workerId = "wa";
    options.leaseMs = 60000;
    options.maxJobAttempts = 2;
    options.retryBackoffMs = 1;
    options.mergeOnDrain = false;
    const WorkerReport poisoner = WorkerDaemon(options).run(specs);
    FaultInjection::instance().disarm();
    EXPECT_EQ(poisoner.poisoned, specs.size());
    EXPECT_EQ(poisoner.completed, 0u);
    EXPECT_TRUE(poisoner.drained); // degraded: all jobs resolved-failed

    // Worker B, same budget: the fleet already spent it — nothing to
    // do, no extra attempts, even though B itself never failed once.
    options.workerId = "wb";
    const WorkerReport skipper = WorkerDaemon(options).run(specs);
    EXPECT_EQ(skipper.completed, 0u);
    EXPECT_EQ(skipper.failedAttempts, 0u);
    EXPECT_EQ(skipper.poisoned, 0u);
    EXPECT_TRUE(skipper.drained);
    for (const JobResult &record : loadMergedRecords(dir.string())) {
        EXPECT_TRUE(record.failed);
        EXPECT_EQ(record.attempts, 2);
    }

    // Worker D, budget 3, with the fault still armed: the attempts are
    // split across workers, so D spends only the remainder — one per
    // job — and the recorded attempts add up to its budget.
    FaultInjection::instance().arm(
        R"({"seed": 1, "faults": [{"site": "worker.job",
            "action": "fail-errno", "errno": "EIO",
            "hit": 1, "times": 0}]})");
    options.workerId = "wd";
    options.maxJobAttempts = 3;
    const WorkerReport remainder = WorkerDaemon(options).run(specs);
    FaultInjection::instance().disarm();
    EXPECT_EQ(remainder.failedAttempts, specs.size());
    EXPECT_EQ(remainder.poisoned, specs.size());
    EXPECT_EQ(remainder.completed, 0u);
    EXPECT_TRUE(remainder.drained);
    for (const JobResult &record : loadMergedRecords(dir.string())) {
        EXPECT_TRUE(record.failed);
        EXPECT_EQ(record.attempts, 3);
    }

    // Worker C with a larger budget sees the jobs as unresolved again
    // (3 of 5 attempts spent), re-runs them fault-free, and the
    // completed records supersede the failure history bit-identically.
    options.workerId = "wc";
    options.maxJobAttempts = 5;
    options.mergeOnDrain = true;
    const WorkerReport healer = WorkerDaemon(options).run(specs);
    EXPECT_EQ(healer.completed, specs.size());
    EXPECT_TRUE(healer.drained);
    const std::vector<JobResult> merged =
        loadMergedRecords(dir.string());
    ASSERT_EQ(merged.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectJobsBitIdentical(merged[i], reference[i]);
}

TEST(WorkerDaemon, BatchedClaimCrashAbandonsTheWholeBatch)
{
    const auto dir = scratchDir("batch_crash");
    const std::vector<ScenarioSpec> specs = tinySweep(4);
    const std::vector<JobResult> reference =
        referenceRun(specs, "batch_crash_ref");

    // Worker A leases the whole sweep in one batch pass, then is
    // SIGKILLed on its first job: every claim in the batch — the
    // running job's and the three queued ones — stays on disk.
    WorkerOptions crash_options;
    crash_options.sweepDir = dir.string();
    crash_options.workerId = "crasher";
    crash_options.leaseMs = 200;
    crash_options.claimBatch = 8;
    crashThroughPlan(kCrashAfterFirstCheckpoint,
                     [&] { WorkerDaemon(crash_options).run(specs); });
    EXPECT_TRUE(loadMergedRecords(dir.string()).empty());
    for (const ScenarioSpec &spec : specs)
        EXPECT_TRUE(WorkClaim::peek(sweepClaimDir(dir.string()),
                                    scenarioFingerprint(spec))
                        .has_value())
            << spec.name;

    // A survivor reaps all four stale leases once they expire and
    // drains the sweep — the abandoned batch cost nothing but time.
    WorkerOptions survivor_options;
    survivor_options.sweepDir = dir.string();
    survivor_options.workerId = "survivor";
    survivor_options.leaseMs = 60000;
    survivor_options.pollMs = 10;
    const WorkerReport survived =
        WorkerDaemon(survivor_options).run(specs);
    EXPECT_EQ(survived.completed, specs.size());
    EXPECT_GE(survived.reapedLeases, specs.size());
    EXPECT_GE(survived.resumed, 1u);
    EXPECT_TRUE(survived.drained);

    const std::vector<JobResult> merged =
        loadMergedRecords(dir.string());
    ASSERT_EQ(merged.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectJobsBitIdentical(merged[i], reference[i]);
    std::string summary;
    ASSERT_TRUE(readTextFile(sweepSummaryPath(dir.string()), summary));
    EXPECT_EQ(summary, sweepSummaryJson(reference).dump(2) + "\n");
}

/** Every spec's claim file is still on disk. */
void
expectEveryClaimHeld(const std::string &dir,
                     const std::vector<ScenarioSpec> &specs)
{
    for (const ScenarioSpec &spec : specs)
        EXPECT_TRUE(WorkClaim::peek(sweepClaimDir(dir),
                                    scenarioFingerprint(spec))
                        .has_value())
            << spec.name;
}

/** A survivor drains the sweep bit-identically to `reference`, each
 * job exactly once in the compacted store, no checkpoint left. */
WorkerReport
survivorDrainsIdentically(const std::filesystem::path &dir,
                          const std::vector<ScenarioSpec> &specs,
                          const std::vector<JobResult> &reference)
{
    WorkerOptions survivor_options;
    survivor_options.sweepDir = dir.string();
    survivor_options.workerId = "survivor";
    survivor_options.leaseMs = 60000;
    survivor_options.pollMs = 10;
    const WorkerReport survived =
        WorkerDaemon(survivor_options).run(specs);
    EXPECT_TRUE(survived.drained);
    EXPECT_TRUE(survived.merged);
    const std::vector<JobResult> merged =
        loadMergedRecords(dir.string());
    EXPECT_EQ(merged.size(), specs.size());
    for (std::size_t i = 0; i < merged.size(); ++i)
        expectJobsBitIdentical(merged[i], reference[i]);
    std::string summary;
    EXPECT_TRUE(readTextFile(sweepSummaryPath(dir.string()), summary));
    EXPECT_EQ(summary, sweepSummaryJson(reference).dump(2) + "\n");
    EXPECT_EQ(
        ResultStore(sweepStorePath(dir.string())).load().size(),
        specs.size());
    EXPECT_TRUE(
        std::filesystem::is_empty(sweepCheckpointDir(dir.string())));
    return survived;
}

TEST(WorkerDaemon, KillBeforeTheBatchCommitResumesFromTheNewestCheckpoint)
{
    const auto dir = scratchDir("kill_before_commit");
    const std::vector<ScenarioSpec> specs = tinySweep(3);
    const std::vector<JobResult> reference =
        referenceRun(specs, "kill_before_commit_ref");

    // SIGKILL as the batch's second job starts: the first job has
    // finished, its record still waiting in memory for the commit.
    WorkerOptions crash_options;
    crash_options.sweepDir = dir.string();
    crash_options.workerId = "crasher";
    crash_options.leaseMs = 200;
    crashThroughPlan(
        R"({"faults": [{"site": "worker.job", "action": "crash",
        "hit": 2}]})",
        [&] { WorkerDaemon(crash_options).run(specs); });
    EXPECT_TRUE(loadMergedRecords(dir.string()).empty());
    expectEveryClaimHeld(dir.string(), specs);

    // The finished job's checkpoint outlived it (checkpoints at 4 and
    // 8 of 12 iterations): it is the only one, at iteration 8.
    std::string finished_fp;
    for (const ScenarioSpec &spec : specs) {
        const std::string fp = scenarioFingerprint(spec);
        if (const auto peeked = peekCheckpoint(
                sweepCheckpointPath(dir.string(), fp))) {
            EXPECT_TRUE(finished_fp.empty()) << spec.name;
            finished_fp = fp;
            EXPECT_EQ(peeked->iteration, 8);
        }
    }
    ASSERT_FALSE(finished_fp.empty());

    // The survivor resumes exactly that job from iteration 8, and the
    // record is bit-identical to the uninterrupted one.
    const WorkerReport survived =
        survivorDrainsIdentically(dir, specs, reference);
    EXPECT_EQ(survived.completed, specs.size());
    EXPECT_EQ(survived.resumed, 1u);
    EventLog::instance().flush();
    std::size_t resumes = 0;
    for (const SweepEvent &event : readSweepEvents(dir.string()))
        if (event.type == event_type::kJobResumed) {
            ++resumes;
            EXPECT_EQ(event.job, finished_fp);
            EXPECT_EQ(event.detail.at("iteration").asInt(), 8);
        }
    EXPECT_EQ(resumes, 1u);
}

TEST(WorkerDaemon, CrashBeforeTheBatchFsyncReleasesNoClaim)
{
    const auto dir = scratchDir("crash_before_fsync");
    const std::vector<ScenarioSpec> specs = tinySweep(3);
    const std::vector<JobResult> reference =
        referenceRun(specs, "crash_before_fsync_ref");

    // SIGKILL between the batch's write and its fsync (journal appends
    // are best-effort and never reach the site; the shard append is
    // the first durable one).
    WorkerOptions crash_options;
    crash_options.sweepDir = dir.string();
    crash_options.workerId = "crasher";
    crash_options.leaseMs = 200;
    crashThroughPlan(
        R"({"faults": [{"site": "file.append.fsync", "action": "crash",
        "hit": 1}]})",
        [&] { WorkerDaemon(crash_options).run(specs); });

    // Claims are released and checkpoints retired only after the
    // fsync returns: every one is still on disk.
    expectEveryClaimHeld(dir.string(), specs);
    for (const ScenarioSpec &spec : specs)
        EXPECT_TRUE(peekCheckpoint(sweepCheckpointPath(
                                       dir.string(),
                                       scenarioFingerprint(spec)))
                        .has_value())
            << spec.name;

    // The written lines outlive a SIGKILL in the page cache, so the
    // survivor finds the jobs recorded; once the dead leases go stale
    // it compacts each job exactly once and retires the checkpoints.
    survivorDrainsIdentically(dir, specs, reference);
}

TEST(WorkerDaemon, HungJobReleasesItsQueuedClaimsAtOnce)
{
    const auto dir = scratchDir("hung_batch");
    const std::vector<ScenarioSpec> specs = tinySweep(4);
    constexpr std::int64_t kLeaseMs = 3000;

    // Worker A leases the whole sweep in one batch and wedges on its
    // first job; its watchdog fires at the first heartbeat (a third of
    // the lease) and must hand the three queued jobs back at once.
    std::atomic<bool> unwedge{false};
    std::atomic<int> calls{0};
    WorkerOptions hung;
    hung.sweepDir = dir.string();
    hung.workerId = "hung";
    hung.leaseMs = kLeaseMs;
    hung.jobTimeoutMs = 50;
    hung.pollMs = 5;
    hung.mergeOnDrain = false;
    hung.jobRunner = [&](const ScenarioSpec &spec,
                         const ScenarioRunOptions &run) {
        if (calls.fetch_add(1) == 0)
            while (!unwedge.load())
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return runScenario(spec, run);
    };
    WorkerReport ra;
    std::thread ta([&] { ra = WorkerDaemon(hung).run(specs); });
    while (listSortedFiles(sweepClaimDir(dir.string()), ".lock").size()
           < specs.size())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // Peer B takes the queued jobs well before one lease has elapsed,
    // and as released claims, not reaped ones.
    WorkerOptions peer = hung;
    peer.workerId = "peer";
    peer.jobRunner = nullptr;
    peer.jobTimeoutMs = 0;
    peer.maxJobs = static_cast<int>(specs.size()) - 1;
    const auto t0 = std::chrono::steady_clock::now();
    const WorkerReport rb = WorkerDaemon(peer).run(specs);
    const auto waited = std::chrono::steady_clock::now() - t0;
    unwedge.store(true);
    ta.join();

    EXPECT_EQ(rb.completed, specs.size() - 1);
    EXPECT_EQ(rb.reapedLeases, 0u);
    EXPECT_LT(waited, std::chrono::milliseconds(2 * kLeaseMs / 3));
    // A gets its wedged job back once it returns, and drains.
    EXPECT_EQ(ra.timedOut, 1u);
    EXPECT_EQ(ra.completed, 1u);
    EXPECT_TRUE(ra.drained);
    EXPECT_EQ(loadMergedRecords(dir.string()).size(), specs.size());
}

TEST(WorkerDaemon, BatchedWorkersStayBitIdentical)
{
    // Two concurrent workers with batched leasing — the final
    // compacted store and summary must still be byte-identical to the
    // single-process reference, like every other schedule.
    const auto dir = scratchDir("batch_two");
    const std::vector<ScenarioSpec> specs = tinySweep(6);
    const std::vector<JobResult> reference =
        referenceRun(specs, "batch_two_ref");

    const auto make_options = [&](const char *id) {
        WorkerOptions options;
        options.sweepDir = dir.string();
        options.workerId = id;
        options.leaseMs = 60000;
        options.pollMs = 5;
        options.claimBatch = 3;
        return options;
    };
    WorkerDaemon wa(make_options("wa"));
    WorkerDaemon wb(make_options("wb"));
    WorkerReport ra, rb;
    std::thread ta([&] { ra = wa.run(specs); });
    std::thread tb([&] { rb = wb.run(specs); });
    ta.join();
    tb.join();

    EXPECT_EQ(ra.completed + rb.completed, specs.size());
    EXPECT_EQ(ra.lostClaims + rb.lostClaims, 0u);
    EXPECT_TRUE(ra.drained);
    EXPECT_TRUE(rb.drained);

    const std::vector<JobResult> merged =
        loadMergedRecords(dir.string());
    ASSERT_EQ(merged.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectJobsBitIdentical(merged[i], reference[i]);
    std::string summary;
    ASSERT_TRUE(readTextFile(sweepSummaryPath(dir.string()), summary));
    EXPECT_EQ(summary, sweepSummaryJson(reference).dump(2) + "\n");
    // Compaction retired every shard.
    std::error_code ec;
    std::size_t leftovers = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir / "workers", ec)) {
        (void)entry;
        ++leftovers;
    }
    EXPECT_EQ(leftovers, 0u);
}

TEST(WorkerDaemon, RescanBaselineReadsMoreThanIncrementalScan)
{
    // The claim-path optimization, asserted end to end: draining the
    // same sweep with the incremental tail reader must read far fewer
    // store bytes than the full-rescan baseline, and reach the same
    // records.
    const std::vector<ScenarioSpec> specs = tinySweep(4);
    const auto run_mode = [&](const char *name, bool incremental) {
        const auto dir = scratchDir(name);
        WorkerOptions options;
        options.sweepDir = dir.string();
        options.workerId = "w";
        options.leaseMs = 60000;
        options.claimBatch = 1; // one scan per job: worst case
        options.incrementalScan = incremental;
        options.mergeOnDrain = false;
        const WorkerReport report = WorkerDaemon(options).run(specs);
        EXPECT_EQ(report.completed, specs.size());
        EXPECT_EQ(loadMergedRecords(dir.string()).size(),
                  specs.size());
        return report;
    };
    const WorkerReport incremental = run_mode("scan_incr", true);
    const WorkerReport rescan = run_mode("scan_full", false);
    EXPECT_LT(incremental.storeBytesRead, rescan.storeBytesRead);
    // Amortized claim traffic: no more than a few acquire round-trips
    // per drained job even at batch size 1.
    EXPECT_LE(incremental.claimAttempts, specs.size() * 3);
}

TEST(WorkerDaemon, GracefulStopSealsCheckpointAndResumesBitIdentical)
{
    const auto dir = scratchDir("graceful");
    const std::vector<ScenarioSpec> specs = {tinySpec("seal", 1.3)};
    const std::vector<JobResult> reference =
        referenceRun(specs, "graceful_ref");

    // Stop is requested once the job's progress counter reaches
    // iteration 4 of 12 — the moment a SIGTERM handler would flip the
    // same flag. The runner must seal a checkpoint at the current
    // iteration, release the claim, and record nothing.
    WorkerDaemon *running = nullptr;
    WorkerOptions options;
    options.sweepDir = dir.string();
    options.workerId = "stopped";
    options.leaseMs = 60000;
    options.jobRunner = [&running](const ScenarioSpec &spec,
                                   const ScenarioRunOptions &run) {
        ScenarioRunOptions stopping = run;
        stopping.shouldStop = [&running, &run] {
            if (run.progressCounter->load() >= 4)
                running->requestStop();
            return run.shouldStop();
        };
        return runScenario(spec, stopping);
    };
    WorkerDaemon daemon(options);
    running = &daemon;
    const WorkerReport report = daemon.run(specs);
    EXPECT_EQ(report.interrupted, 1u);
    EXPECT_EQ(report.completed, 0u);
    EXPECT_FALSE(report.drained);

    const std::string fp = scenarioFingerprint(specs[0]);
    EXPECT_FALSE(
        WorkClaim::peek(sweepClaimDir(dir.string()), fp).has_value());
    EXPECT_TRUE(loadMergedRecords(dir.string()).empty());
    const auto sealed =
        peekCheckpoint(sweepCheckpointPath(dir.string(), fp));
    ASSERT_TRUE(sealed.has_value());
    EXPECT_GE(sealed->iteration, 4);
    EXPECT_LT(sealed->iteration, specs[0].maxIterations);

    // The next claimant resumes from the sealed checkpoint and the
    // interruption is invisible in the results.
    options.workerId = "resumer";
    options.jobRunner = nullptr;
    const WorkerReport resumed = WorkerDaemon(options).run(specs);
    EXPECT_EQ(resumed.completed, 1u);
    EXPECT_GE(resumed.resumed, 1u);
    EXPECT_TRUE(resumed.drained);
    const std::vector<JobResult> merged =
        loadMergedRecords(dir.string());
    ASSERT_EQ(merged.size(), 1u);
    expectJobsBitIdentical(merged[0], reference[0]);
}

} // namespace
} // namespace treevqa
