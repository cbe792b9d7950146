/**
 * @file
 * Tests for the observability layer: the metrics registry (sharded
 * counters, mergeable log2 histograms, deterministic dumps) and trace
 * spans (histograms always fed, armed spans journaled as `trace.span`
 * events, dropped while no journal is open).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/event_log.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace treevqa {
namespace {

std::filesystem::path
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / ("obs_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Registry, trace arming, journal and fault injection are
 * process-wide: every test restores all four on the way out, pass or
 * fail. */
class ObservabilityTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        FaultInjection::instance().disarm();
        TraceSpan::setArmed(false);
        EventLog::instance().close();
        MetricsRegistry::instance().reset();
    }
};

/** Every journal line under `dir` (none when nothing was
 * flushed). */
std::vector<std::string>
journalLines(const std::filesystem::path &dir)
{
    std::vector<std::string> out;
    for (const std::string &path :
         listSortedFiles((dir / "events").string(), ".jsonl")) {
        std::string text;
        EXPECT_TRUE(readTextFile(path, text));
        std::istringstream lines(text);
        for (std::string line; std::getline(lines, line);)
            out.push_back(line);
    }
    return out;
}

// ------------------------------------------------------------ counters

TEST_F(ObservabilityTest, ShardedCounterTotalsAreExactUnderThreads)
{
    Counter counter;
    constexpr int kThreads = 8;
    constexpr int kIncs = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&counter] {
            for (int i = 0; i < kIncs; ++i)
                counter.inc();
            counter.inc(5);
        });
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(counter.total(),
              static_cast<std::uint64_t>(kThreads) * (kIncs + 5));

    counter.reset();
    EXPECT_EQ(counter.total(), 0u);
}

TEST_F(ObservabilityTest, RegistryReturnsStableInstruments)
{
    Counter &a = MetricsRegistry::instance().counter("obs.test_a");
    Counter &again = MetricsRegistry::instance().counter("obs.test_a");
    EXPECT_EQ(&a, &again);
    a.inc(7);
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    EXPECT_EQ(snap.counters.at("obs.test_a"), 7u);

    MetricsRegistry::instance().reset();
    // reset() zeroes in place; the cached reference stays live.
    a.inc(2);
    EXPECT_EQ(a.total(), 2u);
}

// ---------------------------------------------------------- histograms

HistogramSnapshot
observed(std::initializer_list<std::uint64_t> values)
{
    Histogram hist;
    for (const std::uint64_t v : values)
        hist.observe(v);
    return hist.snapshot();
}

TEST_F(ObservabilityTest, HistogramBucketsFollowBitWidth)
{
    EXPECT_EQ(Histogram::bucketIndex(0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(1), 1u);
    EXPECT_EQ(Histogram::bucketIndex(2), 2u);
    EXPECT_EQ(Histogram::bucketIndex(3), 2u);
    EXPECT_EQ(Histogram::bucketIndex(4), 3u);
    EXPECT_EQ(Histogram::bucketIndex(1023), 10u);
    EXPECT_EQ(Histogram::bucketIndex(1024), 11u);
    EXPECT_EQ(Histogram::bucketIndex(~std::uint64_t{0}), 63u);
}

TEST_F(ObservabilityTest, HistogramMergeIsAssociative)
{
    const HistogramSnapshot a = observed({1, 5, 9, 100});
    const HistogramSnapshot b = observed({0, 0, 3, 4096});
    const HistogramSnapshot c = observed({7, 1u << 20});

    HistogramSnapshot ab = a;
    ab.merge(b);
    HistogramSnapshot ab_c = ab;
    ab_c.merge(c);

    HistogramSnapshot bc = b;
    bc.merge(c);
    HistogramSnapshot a_bc = a;
    a_bc.merge(bc);

    EXPECT_EQ(ab_c.count, a_bc.count);
    EXPECT_EQ(ab_c.sum, a_bc.sum);
    for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i)
        EXPECT_EQ(ab_c.buckets[i], a_bc.buckets[i]) << "bucket " << i;
    EXPECT_EQ(ab_c.count, 10u);
    EXPECT_DOUBLE_EQ(ab_c.quantile(0.5), a_bc.quantile(0.5));
    EXPECT_DOUBLE_EQ(ab_c.quantile(0.99), a_bc.quantile(0.99));
}

TEST_F(ObservabilityTest, QuantilesAreDeterministicBucketMidpoints)
{
    const HistogramSnapshot snap = observed({0, 1, 2, 3, 4});
    // Ranks: bucket 0 holds {0}, bucket 1 {1}, bucket 2 {2,3},
    // bucket 3 {4}. p50 -> rank 3 -> bucket 2 midpoint 3.0.
    EXPECT_DOUBLE_EQ(snap.quantile(0.5), 3.0);
    EXPECT_DOUBLE_EQ(snap.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(snap.quantile(1.0), 6.0); // bucket 3 mid
    EXPECT_DOUBLE_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);
}

// ------------------------------------------------- snapshots and dumps

MetricsSnapshot
fixedSnapshot(std::uint64_t completed, std::int64_t expansions)
{
    MetricsSnapshot snap;
    snap.counters["worker.jobs_completed"] = completed;
    snap.counters["worker.scan_rounds"] = completed * 2;
    snap.gauges["worker.spec_expansions"] = expansions;
    snap.histograms["runner.step_ns"] = observed({1000, 2000, 4000});
    return snap;
}

TEST_F(ObservabilityTest, SnapshotJsonIsDeterministicAndRoundTrips)
{
    const MetricsSnapshot snap = fixedSnapshot(3, 12);
    const std::string once = snap.toJson().dump(2);
    const std::string twice = snap.toJson().dump(2);
    EXPECT_EQ(once, twice);

    const MetricsSnapshot back =
        MetricsSnapshot::fromJson(JsonValue::parse(once));
    EXPECT_EQ(back.toJson().dump(2), once);
    EXPECT_EQ(back.counters.at("worker.jobs_completed"), 3u);
    EXPECT_EQ(back.gauges.at("worker.spec_expansions"), 12);
    EXPECT_EQ(back.histograms.at("runner.step_ns").count, 3u);
    EXPECT_EQ(back.histograms.at("runner.step_ns").sum, 7000u);
}

TEST_F(ObservabilityTest, AggregationIsByteStableAndOrderIndependent)
{
    std::vector<std::pair<std::string, JsonValue>> dumps;
    dumps.emplace_back("w0-p100", fixedSnapshot(3, 12).toJson());
    dumps.emplace_back("w1-p200", fixedSnapshot(4, 9).toJson());
    const std::string forward = aggregateMetricsJson(dumps).dump(2);
    EXPECT_EQ(forward, aggregateMetricsJson(dumps).dump(2));

    std::vector<std::pair<std::string, JsonValue>> reversed(
        dumps.rbegin(), dumps.rend());
    EXPECT_EQ(forward, aggregateMetricsJson(reversed).dump(2));

    const JsonValue merged = JsonValue::parse(forward);
    EXPECT_EQ(merged.at("processes").asUint(), 2u);
    EXPECT_EQ(merged.at("counters")
                  .at("worker.jobs_completed")
                  .asUint(),
              7u);
    // Gauges max-merge; counters sum.
    EXPECT_EQ(merged.at("gauges")
                  .at("worker.spec_expansions")
                  .asInt(),
              12);
    EXPECT_EQ(merged.at("phases").at("runner.step_ns").at("count")
                  .asUint(),
              6u);
}

TEST_F(ObservabilityTest, WriteAndReadDumpsThroughSweepDir)
{
    const auto dir = scratchDir("dumps");
    MetricsRegistry::instance().counter("obs.sweep_total").inc(11);
    EXPECT_TRUE(
        writeMetricsSnapshot(dir.string(), "w0", "w0-p1"));
    EXPECT_TRUE(
        writeMetricsSnapshot(dir.string(), "w0", "w0-p2"));

    const auto dumps = readMetricsDumps(dir.string());
    ASSERT_EQ(dumps.size(), 2u);
    EXPECT_EQ(dumps[0].first, "w0-p1");
    EXPECT_EQ(dumps[1].first, "w0-p2");
    // Both incarnations carry the full total; the aggregate sums
    // them (that is the point of per-incarnation files: a replaced
    // worker's history is never erased).
    const JsonValue merged = aggregateMetricsJson(dumps);
    EXPECT_EQ(merged.at("counters").at("obs.sweep_total").asUint(),
              22u);

    FaultInjection::instance().arm(
        R"({"faults": [{"site": "metrics.write",
        "action": "fail-errno", "errno": "EIO", "hit": 1}]})");
    EXPECT_FALSE(
        writeMetricsSnapshot(dir.string(), "w0", "w0-p3"));
}

// -------------------------------------------------------------- traces

TEST_F(ObservabilityTest, ArmedSpanJournalsOneTraceSpanEvent)
{
    const auto dir = scratchDir("armed");
    EventLog::instance().open(dir.string(), "obs");
    TraceSpan::setArmed(true);
    Histogram hist;
    {
        TRACE_SPAN_TIMED("obs.armed", hist);
    }
    TraceSpan::setArmed(false);
    EXPECT_EQ(hist.snapshot().count, 1u);
    ASSERT_TRUE(EventLog::instance().flush());

    const std::vector<std::string> lines = journalLines(dir);
    ASSERT_EQ(lines.size(), 1u);
    SweepEvent event;
    std::string reason;
    ASSERT_TRUE(decodeEventLine(lines[0], event, &reason)) << reason;
    EXPECT_EQ(event.type, event_type::kTraceSpan);
    EXPECT_EQ(event.worker, "obs");
    EXPECT_EQ(event.job, "");
    EXPECT_EQ(event.detail.at("name").asString(), "obs.armed");
    EXPECT_GE(event.detail.at("durUs").asInt(), 0);
}

TEST_F(ObservabilityTest, SpanWithNoJournalOpenWritesNothing)
{
    TraceSpan::setArmed(true);
    EXPECT_NO_THROW({ TRACE_SPAN("obs.unjournaled"); });
    EXPECT_EQ(EventLog::instance().buffered(), 0u);

    // Opening a journal afterwards does not resurrect the span.
    const auto dir = scratchDir("nolog");
    EventLog::instance().open(dir.string(), "obs");
    ASSERT_TRUE(EventLog::instance().flush());
    EXPECT_TRUE(journalLines(dir).empty());
}

TEST_F(ObservabilityTest, DisarmedSpanStillFeedsItsHistogram)
{
    const auto dir = scratchDir("disarmed");
    EventLog::instance().open(dir.string(), "obs");
    TraceSpan::setArmed(false);
    Histogram hist;
    {
        TRACE_SPAN_TIMED("obs.timed", hist);
    }
    EXPECT_EQ(hist.snapshot().count, 1u);
    EXPECT_EQ(EventLog::instance().buffered(), 0u);

    // Plain spans are free while disarmed: nothing is journaled.
    {
        TRACE_SPAN("obs.plain");
    }
    EXPECT_EQ(EventLog::instance().buffered(), 0u);
}

} // namespace
} // namespace treevqa
