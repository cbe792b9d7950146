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
