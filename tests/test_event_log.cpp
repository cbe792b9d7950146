/**
 * @file
 * Tests for the causal event journal: hybrid-logical-clock merge and
 * monotonicity under injected wall-clock skew, the CRC'd emit/flush/
 * read round trip, fail-closed behaviour of the "event.append" fault
 * site, once-only quarantine of torn journal tails, and the
 * byte-stability of `--timeline` output across journal read orders
 * after a fork+SIGKILL lease handoff.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/event_log.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/json.h"
#include "common/metrics.h"

namespace treevqa {
namespace {

std::filesystem::path
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / ("evl_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Fault injection, the metrics registry and the process event log
 * are process-wide: restore all three on the way out, pass or fail. */
class EventLogTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        FaultInjection::instance().disarm();
        EventLog::instance().close();
        MetricsRegistry::instance().reset();
    }
};

// ------------------------------------------------------- hybrid clock

TEST_F(EventLogTest, TickStaysMonotonicWhenWallClockRunsBackwards)
{
    HlcClock clock("w0-p1");
    const Hlc a = clock.tick(1000);
    const Hlc b = clock.tick(900); // system clock stepped back
    const Hlc c = clock.tick(1000);
    const Hlc d = clock.tick(2000);
    EXPECT_TRUE(hlcLess(a, b));
    EXPECT_TRUE(hlcLess(b, c));
    EXPECT_TRUE(hlcLess(c, d));
    // The wall component holds at the max seen; the counter breaks
    // the ties the stalled wall would otherwise create.
    EXPECT_EQ(a.wallMs, 1000);
    EXPECT_EQ(a.counter, 0);
    EXPECT_EQ(b.wallMs, 1000);
    EXPECT_EQ(b.counter, 1);
    EXPECT_EQ(d.wallMs, 2000);
    EXPECT_EQ(d.counter, 0);
}

TEST_F(EventLogTest, ObserveMergeOrdersHandoffDespiteSkew)
{
    // Worker a's clock runs 5 s ahead of worker b's.
    HlcClock a("a-p1");
    HlcClock b("b-p1");
    const Hlc last_renewal = a.tick(10000);
    // b reads a's claim stamp before reaping; merging pushes b past
    // it even though b's physical clock is far behind.
    const Hlc merged = b.observe(last_renewal, 5000);
    EXPECT_TRUE(hlcLess(last_renewal, merged));
    EXPECT_EQ(merged.wallMs, 10000);
    EXPECT_EQ(merged.counter, last_renewal.counter + 1);
    // And every later local tick of b still compares greater.
    const Hlc reap = b.tick(5001);
    EXPECT_TRUE(hlcLess(merged, reap));

    // Equal walls on both sides: counter jumps past the max.
    const Hlc back = a.observe(reap, 10000);
    EXPECT_TRUE(hlcLess(reap, back));
    EXPECT_EQ(back.counter, reap.counter + 1);
}

TEST_F(EventLogTest, HlcKeyRoundTripsAndAcceptsPartialCursors)
{
    Hlc h;
    h.wallMs = 123456;
    h.counter = 7;
    h.origin = "w0-p42";
    Hlc parsed;
    ASSERT_TRUE(parseHlcKey(hlcKey(h), parsed));
    EXPECT_EQ(parsed.wallMs, 123456);
    EXPECT_EQ(parsed.counter, 7);
    EXPECT_EQ(parsed.origin, "w0-p42");
    // "<wallMs>" alone is an inclusive lower-bound cursor.
    ASSERT_TRUE(parseHlcKey("5000", parsed));
    EXPECT_EQ(parsed.wallMs, 5000);
    EXPECT_EQ(parsed.counter, 0);
    EXPECT_TRUE(parsed.origin.empty());
    EXPECT_FALSE(parseHlcKey("not-a-key", parsed));
    EXPECT_FALSE(parseHlcKey("", parsed));
}

// ---------------------------------------------------- writer / reader

TEST_F(EventLogTest, EmitFlushReadRoundTripsWithCrc)
{
    const auto dir = scratchDir("roundtrip");
    EventLog log;
    log.open(dir.string(), "w0");
    JsonValue detail = JsonValue::object();
    detail.set("name", JsonValue(std::string("job0")));
    const Hlc stamp = log.emit(event_type::kJobClaimed, "fp0",
                               std::move(detail));
    EXPECT_FALSE(stamp.empty());
    log.emit(event_type::kJobCompleted, "fp0");
    EXPECT_EQ(log.buffered(), 2u);
    EXPECT_TRUE(log.flush());
    EXPECT_EQ(log.buffered(), 0u);

    EventReadStats stats;
    const std::vector<SweepEvent> events =
        readSweepEvents(dir.string(), &stats);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(stats.files, 1u);
    EXPECT_EQ(stats.corruptLines, 0u);
    EXPECT_EQ(events[0].type, event_type::kJobClaimed);
    EXPECT_EQ(events[0].worker, "w0");
    EXPECT_EQ(events[0].job, "fp0");
    EXPECT_EQ(events[0].detail.at("name").asString(), "job0");
    EXPECT_EQ(events[1].type, event_type::kJobCompleted);
    EXPECT_TRUE(hlcLess(events[0].hlc, events[1].hlc));
    log.close();
}

TEST_F(EventLogTest, EmittedLineIsItsCanonicalFormWithCrcLast)
{
    // emit() splices the crc member onto the serialized body; the line
    // must be exactly what set("crc") + dump() of the body would give,
    // escapes included.
    const auto dir = scratchDir("canonical");
    EventLog log;
    log.open(dir.string(), "w0");
    JsonValue detail = JsonValue::object();
    detail.set("error", JsonValue(std::string("bad \"spec\"\n\ttab \x01")));
    detail.set("attempt", JsonValue(std::int64_t{3}));
    log.emit(event_type::kJobFailed, "fp\\0", std::move(detail));
    ASSERT_TRUE(log.flush());
    const std::string path = log.path();
    log.close();

    std::string text;
    ASSERT_TRUE(readTextFile(path, text));
    ASSERT_FALSE(text.empty());
    ASSERT_EQ(text.back(), '\n');
    const std::string line = text.substr(0, text.size() - 1);
    JsonValue parsed = JsonValue::parse(line);
    EXPECT_EQ(parsed.dump(), line);
    ASSERT_EQ(parsed.asObject().back().first, "crc");
    const std::string crc = parsed.at("crc").asString();
    parsed.erase("crc");
    EXPECT_EQ(crc32Hex(parsed.dump()), crc);
    EXPECT_EQ(parsed.at("detail").at("error").asString(),
              "bad \"spec\"\n\ttab \x01");
}

TEST_F(EventLogTest, AppendFaultFailsClosedAndRecovers)
{
    const auto dir = scratchDir("fault");
    EventLog log;
    log.open(dir.string(), "w1");
    log.emit(event_type::kLeaseAcquired, "fp1");
    FaultInjection::instance().arm(
        R"({"faults": [{"site": "event.append",
        "action": "fail-errno", "errno": "EIO", "hit": 1}]})");
    // The batch is dropped, not retried forever and never thrown
    // into protocol code.
    EXPECT_FALSE(log.flush());
    EXPECT_EQ(log.buffered(), 0u);
    FaultInjection::instance().disarm();

    log.emit(event_type::kLeaseRenewed, "fp1");
    EXPECT_TRUE(log.flush());
    const std::vector<SweepEvent> events =
        readSweepEvents(dir.string());
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].type, event_type::kLeaseRenewed);
    log.close();
}

TEST_F(EventLogTest, TornTailLineIsQuarantinedExactlyOnce)
{
    const auto dir = scratchDir("torn");
    EventLog log;
    log.open(dir.string(), "w2");
    log.emit(event_type::kJobClaimed, "fpA");
    log.emit(event_type::kJobCompleted, "fpA");
    ASSERT_TRUE(log.flush());
    const std::string journal = log.path();
    log.close();

    // Tear the tail as a mid-append kill would: chop the last line.
    std::string text;
    ASSERT_TRUE(readTextFile(journal, text));
    ASSERT_GT(text.size(), 20u);
    text.resize(text.size() - 20);
    {
        std::ofstream out(journal,
                          std::ios::binary | std::ios::trunc);
        out << text;
    }

    EventReadStats first_stats, second_stats;
    const std::vector<SweepEvent> first =
        readEventJournal(journal, &first_stats);
    const std::vector<SweepEvent> second =
        readEventJournal(journal, &second_stats);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].type, event_type::kJobClaimed);
    EXPECT_EQ(first_stats.corruptLines, 1u);
    // The second read still reports the corrupt line...
    EXPECT_EQ(second.size(), 1u);
    EXPECT_EQ(second_stats.corruptLines, 1u);

    // ...but the quarantine envelope was appended exactly once.
    const std::filesystem::path qfile = dir / "events" / "quarantine"
        / std::filesystem::path(journal).filename();
    std::string qtext;
    ASSERT_TRUE(readTextFile(qfile.string(), qtext));
    EXPECT_EQ(std::count(qtext.begin(), qtext.end(), '\n'), 1);
    const JsonValue envelope =
        JsonValue::parse(qtext.substr(0, qtext.find('\n')));
    EXPECT_EQ(envelope.at("line").asInt(), 2);
}

// ------------------------------------------------- timeline stability

TEST_F(EventLogTest, TimelineByteIdenticalAcrossJournalReadOrders)
{
    const auto dir = scratchDir("handoff");
    const std::string fp = "deadbeefcafef00d";

    // First incarnation: a forked child claims the job, checkpoints,
    // and dies to SIGKILL with its journal flushed — the same shape
    // the supervisor's kill-storm drill produces.
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        EventLog log;
        log.open(dir.string(), "wa");
        log.emit(event_type::kJobClaimed, fp);
        log.emit(event_type::kJobCheckpointed, fp);
        log.flush();
        ::raise(SIGKILL);
        std::_Exit(99); // unreachable
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // The survivor observes the dead incarnation's last stamp (as the
    // reaper does from the claim file) and finishes the job.
    const std::vector<SweepEvent> dead =
        readSweepEvents(dir.string());
    ASSERT_EQ(dead.size(), 2u);
    HlcClock::instance().observe(dead.back().hlc);
    EventLog log;
    log.open(dir.string(), "wb");
    log.emit(event_type::kLeaseReaped, fp);
    log.emit(event_type::kJobResumed, fp);
    log.emit(event_type::kJobCompleted, fp);
    ASSERT_TRUE(log.flush());
    log.close();

    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir / "events"))
        if (entry.path().extension() == ".jsonl")
            files.push_back(entry.path().string());
    ASSERT_EQ(files.size(), 2u);
    std::sort(files.begin(), files.end());

    std::vector<SweepEvent> forward;
    for (const std::string &file : files) {
        const std::vector<SweepEvent> part = readEventJournal(file);
        forward.insert(forward.end(), part.begin(), part.end());
    }
    std::vector<SweepEvent> reversed;
    for (auto it = files.rbegin(); it != files.rend(); ++it) {
        const std::vector<SweepEvent> part = readEventJournal(*it);
        reversed.insert(reversed.end(), part.begin(), part.end());
    }

    const std::string t1 = formatTimeline(forward, fp);
    const std::string t2 = formatTimeline(reversed, fp);
    EXPECT_EQ(t1, t2);

    // And the biography reads in causal order: the handoff chain
    // spans both incarnations.
    const std::size_t claimed = t1.find("job.claimed");
    const std::size_t checkpointed = t1.find("job.checkpointed");
    const std::size_t reaped = t1.find("lease.reaped");
    const std::size_t resumed = t1.find("job.resumed");
    const std::size_t completed = t1.find("job.completed");
    ASSERT_NE(claimed, std::string::npos);
    ASSERT_NE(completed, std::string::npos);
    EXPECT_LT(claimed, checkpointed);
    EXPECT_LT(checkpointed, reaped);
    EXPECT_LT(reaped, resumed);
    EXPECT_LT(resumed, completed);
}

} // namespace
} // namespace treevqa
