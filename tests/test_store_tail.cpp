/**
 * @file
 * Tests for the PR-8 claim-path scaling layer: the incremental
 * StoreTailReader (torn-line handling, quarantine parity with the
 * full loader, cursor invalidation after compaction), the stat-cached
 * SweepIndex, and the JobResolution fold: an incremental tail read
 * and a full merged load must reach the same verdicts.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/rng.h"
#include "dist/store_merge.h"
#include "dist/store_tail.h"
#include "svc/result_store.h"
#include "svc/sweep_dir.h"
#include "svc/sweep_index.h"

namespace treevqa {
namespace {

std::filesystem::path
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / ("tail_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

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

/** A synthetic completed record — valid spec, matching fingerprint,
 * no scenario execution needed. */
JobResult
syntheticRecord(const std::string &name, double field)
{
    JobResult r;
    r.spec = tinySpec(name, field);
    r.fingerprint = scenarioFingerprint(r.spec);
    r.completed = true;
    r.iterations = 3;
    r.trajectory = {1.0, 0.5, 0.25};
    r.bestLoss = 0.25;
    r.finalEnergy = -field;
    r.shotsUsed = 128;
    return r;
}

JobResult
syntheticFailure(const std::string &name, double field, int attempts,
                 bool timed_out = false)
{
    JobResult r;
    r.spec = tinySpec(name, field);
    r.fingerprint = scenarioFingerprint(r.spec);
    r.failed = true;
    r.attempts = attempts;
    r.timedOut = timed_out;
    r.errorMessage = "boom";
    return r;
}

std::uintmax_t
fileSize(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    return ec ? 0 : size;
}

// ------------------------------------------------------ tail reader

TEST(StoreTailReader, ConsumesOnlyAppendedBytesPerRefresh)
{
    const auto dir = scratchDir("appends");
    const std::string store = sweepStorePath(dir.string());
    ResultStore writer(store);
    writer.append(syntheticRecord("a", 0.5));
    writer.append(syntheticRecord("b", 0.7));

    StoreTailReader tail(dir.string());
    tail.refresh();
    EXPECT_EQ(tail.resolutions().size(), 2u);
    EXPECT_EQ(tail.counters().bytesRead, fileSize(store));
    EXPECT_EQ(tail.counters().fullRescans, 0u);

    const std::uintmax_t before = fileSize(store);
    writer.append(syntheticRecord("c", 0.9));
    const std::uint64_t bytes_before = tail.counters().bytesRead;
    tail.refresh();
    EXPECT_EQ(tail.resolutions().size(), 3u);
    // Only the third record's bytes were read, not the whole store.
    EXPECT_EQ(tail.counters().bytesRead - bytes_before,
              fileSize(store) - before);
    EXPECT_EQ(tail.counters().fullRescans, 0u);

    // An idle refresh reads nothing at all.
    const std::uint64_t bytes_idle = tail.counters().bytesRead;
    tail.refresh();
    EXPECT_EQ(tail.counters().bytesRead, bytes_idle);
}

TEST(StoreTailReader, TornTrailingLineIsReReadAfterSeal)
{
    const auto dir = scratchDir("torn");
    std::filesystem::create_directories(sweepShardDir(dir.string()));
    const std::string shard = sweepShardPath(dir.string(), "w0");
    ResultStore(shard).append(syntheticRecord("a", 0.5));

    const JobResult second = syntheticRecord("b", 0.7);
    const std::string line = jobResultToStoredLine(second);
    const std::size_t half = line.size() / 2;
    {
        std::ofstream out(shard, std::ios::app);
        out << line.substr(0, half); // a killed writer's fragment
    }

    StoreTailReader tail(dir.string());
    tail.refresh();
    // The unterminated tail is left unconsumed — not decoded, not
    // quarantined.
    EXPECT_EQ(tail.resolutions().size(), 1u);
    EXPECT_EQ(tail.resolutions().count(second.fingerprint), 0u);
    EXPECT_FALSE(std::filesystem::exists(quarantineDirFor(shard)));

    {
        std::ofstream out(shard, std::ios::app);
        out << line.substr(half) << "\n"; // the append completes
    }
    tail.refresh();
    ASSERT_EQ(tail.resolutions().count(second.fingerprint), 1u);
    EXPECT_TRUE(tail.resolutions().at(second.fingerprint).completed);
    EXPECT_EQ(tail.counters().quarantinedLines, 0u);
    EXPECT_EQ(tail.counters().fullRescans, 0u);
}

TEST(StoreTailReader, CrcMismatchIsQuarantinedExactlyOnce)
{
    const auto dir = scratchDir("crc_once");
    std::filesystem::create_directories(sweepShardDir(dir.string()));
    const std::string shard = sweepShardPath(dir.string(), "w0");
    const JobResult good = syntheticRecord("good", 0.5);
    const JobResult victim = syntheticRecord("victim", 0.7);
    // Flip a digit inside the victim's stored line so it still parses
    // but fails its CRC.
    std::string line = jobResultToStoredLine(victim);
    const std::string key = "\"iterations\":";
    const std::size_t digit = line.find(key);
    ASSERT_NE(digit, std::string::npos);
    char &first = line[digit + key.size()];
    first = first == '9' ? '8' : '9';
    ResultStore(shard).append(good);
    {
        std::ofstream out(shard, std::ios::app);
        out << line << "\n";
    }

    StoreTailReader tail(dir.string());
    tail.refresh();
    EXPECT_EQ(tail.resolutions().size(), 1u);
    EXPECT_EQ(tail.counters().quarantinedLines, 1u);

    // A full rescan re-reads the corrupt line, but the
    // once-per-(file, line, content) gate keeps the quarantine
    // envelope unique.
    tail.invalidate();
    tail.refresh();
    EXPECT_EQ(tail.counters().fullRescans, 1u);
    EXPECT_EQ(tail.counters().quarantinedLines, 2u);
    std::string quarantined;
    ASSERT_TRUE(readTextFile(
        (std::filesystem::path(quarantineDirFor(shard)) / "w0.jsonl")
            .string(),
        quarantined));
    std::size_t envelopes = 0;
    for (const char c : quarantined)
        if (c == '\n')
            ++envelopes;
    EXPECT_EQ(envelopes, 1u);
    EXPECT_NE(quarantined.find("crc mismatch"), std::string::npos);
}

TEST(StoreTailReader, CompactionInvalidatesCursorsAndForcesRescan)
{
    const auto dir = scratchDir("compact");
    std::filesystem::create_directories(sweepShardDir(dir.string()));
    const JobResult a = syntheticRecord("a", 0.5);
    const JobResult b = syntheticRecord("b", 0.7);
    ResultStore(sweepShardPath(dir.string(), "w0")).append(a);
    ResultStore(sweepShardPath(dir.string(), "w1")).append(b);

    StoreTailReader tail(dir.string());
    tail.refresh();
    EXPECT_EQ(tail.resolutions().size(), 2u);
    EXPECT_EQ(tail.counters().fullRescans, 0u);

    // Compaction rewrites the layout: the tracked shards vanish into
    // the canonical store, so the next refresh must start clean — and
    // reach the same verdicts.
    compactSweepStore(dir.string(), /*removeMergedShards=*/true);
    tail.refresh();
    EXPECT_EQ(tail.counters().fullRescans, 1u);
    ASSERT_EQ(tail.resolutions().size(), 2u);
    EXPECT_TRUE(tail.resolutions().at(a.fingerprint).completed);
    EXPECT_TRUE(tail.resolutions().at(b.fingerprint).completed);
}

TEST(StoreTailReader, OwnAppendFoldsFromMemoryOnlyWhenTheBytesAreOurs)
{
    const auto dir = scratchDir("own_fold");
    std::filesystem::create_directories(sweepShardDir(dir.string()));
    const std::string shard = sweepShardPath(dir.string(), "w0");
    StoreTailReader tail(dir.string());
    tail.refresh();
    ASSERT_TRUE(tail.takeDelta().rebuilt);

    // A clean append to a new file: folded from memory, never read.
    const std::vector<JobResult> first = {syntheticRecord("a", 0.5),
                                          syntheticRecord("b", 0.7)};
    std::uint64_t bytes = ResultStore(shard).append(first).bytes;
    EXPECT_EQ(bytes, fileSize(shard));
    EXPECT_TRUE(tail.foldOwnAppend(shard, first, bytes));
    EXPECT_TRUE(tail.resolution(first[1].fingerprint).completed);
    const StoreTailReader::Delta delta = tail.takeDelta();
    EXPECT_FALSE(delta.rebuilt);
    EXPECT_EQ(delta.changed,
              (std::vector<std::string>{first[0].fingerprint,
                                        first[1].fingerprint}));
    tail.refresh();
    EXPECT_EQ(tail.counters().bytesRead, 0u);
    EXPECT_EQ(tail.counters().linesParsed, 0u);
    EXPECT_EQ(tail.counters().ownRecordsFolded, 2u);

    // A torn append is not ours byte for byte: declined, and the
    // refresh reads its whole lines and leaves the fragment.
    const std::vector<JobResult> torn = {syntheticRecord("c", 0.9),
                                         syntheticRecord("d", 1.1)};
    const std::string torn_lines = jobResultToStoredLine(torn[0]) + "\n"
        + jobResultToStoredLine(torn[1]) + "\n";
    {
        std::ofstream out(shard, std::ios::app | std::ios::binary);
        out << torn_lines.substr(0, torn_lines.size() - 10);
    }
    EXPECT_FALSE(tail.foldOwnAppend(shard, torn, torn_lines.size()));
    EXPECT_EQ(tail.resolutions().count(torn[0].fingerprint), 0u);
    tail.refresh();
    EXPECT_TRUE(tail.resolution(torn[0].fingerprint).completed);
    EXPECT_EQ(tail.resolutions().count(torn[1].fingerprint), 0u);

    // The next append seals the fragment with a newline first, so it
    // is one byte more than ours: declined again, and the refresh
    // quarantines the fragment and folds the new record.
    const std::vector<JobResult> sealed = {syntheticRecord("e", 1.3)};
    bytes = ResultStore(shard).append(sealed).bytes;
    EXPECT_FALSE(tail.foldOwnAppend(shard, sealed, bytes));
    tail.refresh();
    EXPECT_EQ(tail.counters().quarantinedLines, 1u);
    EXPECT_TRUE(tail.resolution(sealed[0].fingerprint).completed);

    // In step again: the cursor is at the end of the file.
    const std::vector<JobResult> again = {syntheticRecord("f", 1.5)};
    const std::uint64_t parsed = tail.counters().linesParsed;
    bytes = ResultStore(shard).append(again).bytes;
    EXPECT_TRUE(tail.foldOwnAppend(shard, again, bytes));
    tail.refresh();
    EXPECT_EQ(tail.counters().linesParsed, parsed);

    // A replaced file (new inode) is never folded into.
    std::string text;
    ASSERT_TRUE(readTextFile(shard, text));
    writeTextFileAtomic(shard, text);
    const std::vector<JobResult> late = {syntheticRecord("g", 1.7)};
    bytes = ResultStore(shard).append(late).bytes;
    EXPECT_FALSE(tail.foldOwnAppend(shard, late, bytes));
    EXPECT_EQ(tail.counters().fullRescans, 0u);
}

TEST(PendingJobs, DeltaKeptSetEqualsAFreshWalk)
{
    // Two executions of one pending rule: the set a worker keeps from
    // the tail reader's deltas, and a fresh O(N) walk over the same
    // view, must agree after every step of a random history of peer
    // records, own commits (some torn), local poison verdicts, view
    // invalidations and a growing job list.
    const int budget = 3;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const auto dir = scratchDir("pending_" + std::to_string(seed));
        std::filesystem::create_directories(sweepShardDir(dir.string()));
        const std::string own = sweepShardPath(dir.string(), "me");
        const std::string peer = sweepShardPath(dir.string(), "peer");

        Rng rng(seed);
        StoreTailReader tail(dir.string());
        std::set<std::string> poisoned;
        std::vector<std::string> fingerprints;
        std::uint64_t generation = 0;
        const auto grow = [&](int jobs) {
            for (int k = 0; k < jobs; ++k) {
                const int job = static_cast<int>(fingerprints.size());
                fingerprints.push_back(scenarioFingerprint(
                    tinySpec("q" + std::to_string(job), 0.1 * job)));
            }
            ++generation;
        };
        const auto random_record = [&] {
            const int job = static_cast<int>(
                rng.uniformInt(fingerprints.size()));
            const std::string name = "q" + std::to_string(job);
            return rng.uniformInt(3) == 0
                ? syntheticRecord(name, 0.1 * job)
                : syntheticFailure(
                      name, 0.1 * job,
                      1 + static_cast<int>(rng.uniformInt(budget)));
        };
        const PendingJobs::Judge judge = [&](const std::string &fp) {
            return !poisoned.count(fp)
                && !tail.resolution(fp).resolved(budget);
        };

        grow(10);
        PendingJobs pending;
        std::uint64_t built_for = 0;
        for (int step = 0; step < 40; ++step) {
            std::vector<std::string> touched;
            switch (rng.uniformInt(6)) {
            case 0: // a peer's commit
                ResultStore(peer).append(random_record());
                tail.refresh();
                break;
            case 1: { // an own commit, torn one time in four
                std::vector<JobResult> batch;
                const std::uint64_t size = 1 + rng.uniformInt(3);
                for (std::uint64_t k = 0; k < size; ++k)
                    batch.push_back(random_record());
                std::string lines;
                for (const JobResult &record : batch)
                    lines += jobResultToStoredLine(record) + "\n";
                appendTextDurable(own, rng.uniformInt(4) == 0
                                           ? lines.substr(0, lines.size() / 2)
                                           : lines);
                tail.foldOwnAppend(own, batch, lines.size());
                for (const JobResult &record : batch)
                    touched.push_back(record.fingerprint);
                break;
            }
            case 2: { // a local poison verdict
                const std::string &fp =
                    fingerprints[rng.uniformInt(fingerprints.size())];
                poisoned.insert(fp);
                touched.push_back(fp);
                break;
            }
            case 3:
                tail.invalidate();
                tail.refresh();
                break;
            case 4:
                grow(1 + static_cast<int>(rng.uniformInt(3)));
                break;
            default:
                tail.refresh();
                break;
            }

            // The worker's sync: rebuild after a rebuilt view or a new
            // job list, else apply the delta and the batch's own jobs.
            const StoreTailReader::Delta delta = tail.takeDelta();
            if (delta.rebuilt || built_for != generation) {
                pending.rebuild(fingerprints, judge);
                built_for = generation;
            } else {
                pending.update(delta.changed, judge);
            }
            pending.update(touched, judge);

            std::vector<std::size_t> walk;
            for (std::size_t i = 0; i < fingerprints.size(); ++i)
                if (judge(fingerprints[i]))
                    walk.push_back(i);
            std::vector<std::size_t> kept;
            for (std::size_t r = 0; r < pending.size(); ++r)
                kept.push_back(pending.at(r));
            ASSERT_EQ(kept, walk) << "step " << step;
        }
    }
}

// -------------------------------------------------------- sweep index

TEST(SweepIndex, ReexpandsOnlyWhenTheRequestChanges)
{
    const auto dir = scratchDir("index");
    JsonValue request = JsonValue::array();
    request.push_back(scenarioToJson(tinySpec("a", 0.5)));
    request.push_back(scenarioToJson(tinySpec("b", 0.7)));
    writeTextFileAtomic(sweepSpecPath(dir.string()),
                        request.dump(2) + "\n");

    SweepIndex index(dir.string());
    index.refresh();
    index.refresh();
    index.refresh();
    EXPECT_EQ(index.expansions(), 1u);
    ASSERT_EQ(index.specs().size(), 2u);
    ASSERT_EQ(index.fingerprints().size(), 2u);
    const ScenarioSpec *hit =
        index.byFingerprint(index.fingerprints()[1]);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->name, "b");
    EXPECT_EQ(index.byFingerprint("no-such-fp"), nullptr);

    request.push_back(scenarioToJson(tinySpec("c", 0.9)));
    writeTextFileAtomic(sweepSpecPath(dir.string()),
                        request.dump(2) + "\n");
    index.refresh();
    EXPECT_EQ(index.expansions(), 2u);
    EXPECT_EQ(index.specs().size(), 3u);
}

TEST(SweepIndex, MissingSpecThrowsAndDuplicatesAreRejected)
{
    const auto dir = scratchDir("index_err");
    SweepIndex index(dir.string());
    EXPECT_THROW(index.refresh(), std::runtime_error);

    const std::vector<ScenarioSpec> dupes{tinySpec("same", 0.5),
                                          tinySpec("same", 0.5)};
    EXPECT_THROW(fingerprintSpecs(dupes), std::invalid_argument);
}

// ----------------------------------------------------- resolution fold

TEST(JobResolution, FoldRanksRecordsAndSumsFailures)
{
    const int budget = 3;

    // Failed attempts sum across workers; timedOut is sticky.
    JobResolution r;
    EXPECT_TRUE(r.fold(syntheticFailure("x", 0.5, 1)));
    EXPECT_FALSE(r.resolved(budget));
    EXPECT_EQ(r.priorAttempts(), 1);
    EXPECT_TRUE(r.fold(syntheticFailure("x", 0.5, 2, /*timed_out=*/true)));
    EXPECT_EQ(r.attempts, 3);
    EXPECT_TRUE(r.timedOut);
    EXPECT_TRUE(r.resolved(budget));

    // A completed record dominates any failure history, in any order.
    JobResolution wins;
    EXPECT_TRUE(wins.fold(syntheticFailure("z", 0.5, 2)));
    EXPECT_TRUE(wins.fold(syntheticRecord("z", 0.5)));
    EXPECT_FALSE(wins.fold(syntheticFailure("z", 0.5, 7)));
    EXPECT_TRUE(wins.completed);
    EXPECT_FALSE(wins.failed);
    EXPECT_EQ(wins.priorAttempts(), 0);
    EXPECT_TRUE(wins.resolved(budget));
}

TEST(StoreTailReader, ZeroAttemptFailedLineIsQuarantined)
{
    // A CRC-valid failed record that accounts for no attempt is
    // malformed: both readers quarantine it instead of folding it.
    const auto dir = scratchDir("zero_attempts");
    const std::string store = sweepStorePath(dir.string());
    const JobResult zero = syntheticFailure("zero", 0.5, 0);
    {
        std::ofstream out(store, std::ios::app);
        out << jobResultToStoredLine(zero) << "\n";
    }
    ResultStore(store).append(syntheticRecord("ok", 0.7));

    StoreLoadStats stats;
    const std::vector<JobResult> loaded = ResultStore(store).load(&stats);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].spec.name, "ok");
    EXPECT_EQ(stats.parseFailures, 1u);

    StoreTailReader tail(dir.string());
    tail.refresh();
    EXPECT_EQ(tail.resolutions().size(), 1u);
    EXPECT_EQ(tail.resolutions().count(zero.fingerprint), 0u);
    EXPECT_EQ(tail.counters().quarantinedLines, 1u);

    std::string quarantined;
    ASSERT_TRUE(readTextFile(
        (std::filesystem::path(quarantineDirFor(store))
         / "results.jsonl")
            .string(),
        quarantined));
    EXPECT_NE(quarantined.find("at least one attempt"),
              std::string::npos);
}

/** One random record for `spec`: completed, failed with 1–3 attempts
 * (with or without timedOut), or a halted partial. */
JobResult
randomRecord(Rng &rng, const std::string &name, double field)
{
    switch (rng.uniformInt(4)) {
    case 0:
        return syntheticRecord(name, field);
    case 1:
    case 2:
        return syntheticFailure(name, field,
                                1 + static_cast<int>(rng.uniformInt(3)),
                                rng.uniformInt(2) == 1);
    default: {
        JobResult partial = syntheticRecord(name, field);
        partial.completed = false;
        return partial;
    }
    }
}

TEST(StoreTailReader, VerdictsMatchAFullMergedLoad)
{
    // Two executions of one fold — an incremental tail read over a
    // canonical store and two shards, and a full merged load folded
    // again — must agree on every job's verdict under every budget.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const auto dir = scratchDir("parity_" + std::to_string(seed));
        std::filesystem::create_directories(sweepShardDir(dir.string()));
        const std::vector<std::string> files = {
            sweepStorePath(dir.string()),
            sweepShardPath(dir.string(), "w0"),
            sweepShardPath(dir.string(), "w1")};

        Rng rng(seed);
        StoreTailReader tail(dir.string());
        std::vector<std::string> fingerprints;
        for (int job = 0; job < 12; ++job) {
            const std::string name = "p" + std::to_string(job);
            const double field = 0.3 + 0.05 * job;
            fingerprints.push_back(
                scenarioFingerprint(tinySpec(name, field)));
            const std::uint64_t count = rng.uniformInt(5); // 0..4
            for (std::uint64_t k = 0; k < count; ++k)
                ResultStore(files[rng.uniformInt(files.size())])
                    .append(randomRecord(rng, name, field));
            // Refresh mid-stream so the tail folds in several
            // increments, not one pass.
            if (job % 4 == 3)
                tail.refresh();
        }
        tail.refresh();
        EXPECT_EQ(tail.counters().fullRescans, 0u);

        std::map<std::string, JobResolution> full;
        for (const JobResult &record : loadMergedRecords(dir.string()))
            full[record.fingerprint].fold(record);

        for (const std::string &fp : fingerprints) {
            const JobResolution &inc = tail.resolution(fp);
            const JobResolution &ref = full[fp];
            SCOPED_TRACE("seed " + std::to_string(seed) + " job " + fp);
            EXPECT_EQ(inc.completed, ref.completed);
            EXPECT_EQ(inc.failed, ref.failed);
            EXPECT_EQ(inc.attempts, ref.attempts);
            EXPECT_EQ(inc.timedOut, ref.timedOut);
            EXPECT_EQ(inc.priorAttempts(), ref.priorAttempts());
            for (int budget = 1; budget <= 4; ++budget)
                EXPECT_EQ(inc.resolved(budget), ref.resolved(budget))
                    << "budget " << budget;
        }
    }
}

} // namespace
} // namespace treevqa
