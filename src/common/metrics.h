#ifndef TREEVQA_COMMON_METRICS_H
#define TREEVQA_COMMON_METRICS_H

/**
 * Process-wide metrics registry: named counters, gauges, and
 * fixed-bucket latency histograms.
 *
 * Design constraints, in order:
 *
 *  1. Hot-path updates are lock-free. `Counter::inc` is a relaxed
 *     fetch_add on one of a small set of cacheline-padded shards
 *     (picked per thread), so concurrent writers never bounce the
 *     same line. `Histogram::observe` is two relaxed fetch_adds.
 *  2. Snapshots are mergeable. A histogram is 64 power-of-two
 *     buckets (bucket i counts values whose bit width is i), so
 *     merging two snapshots is element-wise addition — trivially
 *     associative and commutative, which is what lets
 *     `treevqa_run --metrics` fold an arbitrary fleet of per-worker
 *     dumps into one view in any order.
 *  3. Dumps are deterministic. Snapshot JSON is built from sorted
 *     maps and integer bucket counts only; two processes that did
 *     the same work byte-for-byte produce the same dump.
 *
 * Instruments are created once via `MetricsRegistry::instance()`
 * lookups (mutex-guarded, amortised to zero by caching the returned
 * reference in a static) and never deallocated, so cached references
 * stay valid for the life of the process.
 *
 * Naming convention: `<subsystem>.<what>[_<unit>]`, e.g.
 * `worker.claim_attempts`, `runner.step_ns`. Histograms always carry
 * a `_ns` suffix; counters are unit-free event or byte counts.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"

namespace treevqa {

/** Monotonic event/byte counter, sharded to keep concurrent
 * increments off the same cacheline. */
class Counter
{
  public:
    static constexpr std::size_t kShards = 16;

    void
    inc(std::uint64_t n = 1)
    {
        shards_[shardIndex()].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    std::uint64_t
    total() const
    {
        std::uint64_t sum = 0;
        for (const Shard &shard : shards_)
            sum += shard.value.load(std::memory_order_relaxed);
        return sum;
    }

    void
    reset()
    {
        for (Shard &shard : shards_)
            shard.value.store(0, std::memory_order_relaxed);
    }

  private:
    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> value{0};
    };

    static std::size_t shardIndex();

    std::array<Shard, kShards> shards_{};
};

/** Last-value instrument (e.g. a generation number or queue depth). */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> value_{0};
};

/** Merged, immutable view of one histogram. Bucket i holds the count
 * of observed values v with std::bit_width(v) == i (bucket 0 is
 * exactly v == 0), i.e. v in [2^(i-1), 2^i). */
struct HistogramSnapshot
{
    static constexpr std::size_t kBuckets = 64;

    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    void merge(const HistogramSnapshot &other);
    /** Approximate quantile (q in [0,1]) from bucket midpoints.
     * Deterministic: integer bucket walk + fixed midpoint formula. */
    double quantile(double q) const;
};

/** Fixed-bucket log2 latency histogram; see HistogramSnapshot for
 * the bucket layout. */
class Histogram
{
  public:
    void
    observe(std::uint64_t value)
    {
        buckets_[bucketIndex(value)].fetch_add(
            1, std::memory_order_relaxed);
        sum_.fetch_add(value, std::memory_order_relaxed);
    }

    HistogramSnapshot snapshot() const;

    void
    reset()
    {
        for (auto &bucket : buckets_)
            bucket.store(0, std::memory_order_relaxed);
        sum_.store(0, std::memory_order_relaxed);
    }

    static std::size_t
    bucketIndex(std::uint64_t value)
    {
        std::size_t i = 0;
        while (value != 0) {
            ++i;
            value >>= 1;
        }
        return i < HistogramSnapshot::kBuckets
            ? i
            : HistogramSnapshot::kBuckets - 1;
    }

  private:
    std::array<std::atomic<std::uint64_t>,
               HistogramSnapshot::kBuckets>
        buckets_{};
    std::atomic<std::uint64_t> sum_{0};
};

/** Point-in-time, mergeable copy of every registered instrument. */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /** Element-wise fold of `other` into this snapshot. Counters and
     * histograms add; gauges keep the maximum (the only merge that is
     * associative without a timestamp). */
    void merge(const MetricsSnapshot &other);
    JsonValue toJson() const;
    static MetricsSnapshot fromJson(const JsonValue &v);
};

/** Process-global instrument registry. Lookup is mutex-guarded;
 * returned references are stable forever (instruments are never
 * destroyed), so call sites cache them in function-local statics. */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    MetricsSnapshot snapshot() const;

    /** Zero every registered instrument (test isolation only; live
     * cached references stay valid). */
    void reset();

  private:
    MetricsRegistry() = default;

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/**
 * Best-effort (no fsync) dump of the current registry state to
 * `<sweepDir>/metrics/<fileToken>.json`, stamped with `id`, the
 * writing pid and `writtenMs`. A non-null `status` is embedded as the
 * dump's `status` object: the process's health row source
 * (dist/health.h), which aggregateMetricsJson ignores. Never throws;
 * returns false on I/O failure (fault site "metrics.write"). Each
 * process incarnation writes its own file (`fileToken` should embed
 * the pid) so a restarted worker slot does not erase its
 * predecessor's totals — the aggregate views sum across incarnations.
 */
bool writeMetricsSnapshot(const std::string &sweepDir,
                          const std::string &id,
                          const std::string &fileToken,
                          const JsonValue &status = JsonValue());

/** Snapshot files under `<sweepDir>/metrics/`, sorted by filename;
 * unreadable/corrupt files are skipped. Each entry is (fileToken,
 * parsed dump). */
std::vector<std::pair<std::string, JsonValue>>
readMetricsDumps(const std::string &sweepDir);

/**
 * Deterministic fleet-wide aggregation: sums counters, max-merges
 * gauges, folds histograms, and derives per-phase latency stats
 * (count, total/mean ms, p50/p90/p99) from the merged buckets. The
 * `wall` object holds one row per dump that carries a root wall gauge
 * (`worker.wall_ns` or `scheduler.wall_ns`): its wall time, the part
 * its calling-thread phases account for (attributed), and the rest
 * (unattributed ms and %).
 * Output depends only on the dump contents, never on wall-clock.
 */
JsonValue aggregateMetricsJson(
    const std::vector<std::pair<std::string, JsonValue>> &dumps);

} // namespace treevqa

#endif // TREEVQA_COMMON_METRICS_H
