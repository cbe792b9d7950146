#include "dist/store_merge.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/event_log.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "svc/sweep_dir.h"

namespace treevqa {

namespace {

struct MergeMetrics
{
    Counter &compactions;
    Counter &quarantines;
    Histogram &compactNs;
};

MergeMetrics &
mergeMetrics()
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    static MergeMetrics m{reg.counter("merge.compactions"),
                          reg.counter("merge.quarantines"),
                          reg.histogram("merge.compact_ns")};
    return m;
}

/** One input store and what loading it saw. */
struct StoreInput
{
    std::string path;
    StoreLoadStats stats;
};

/** Load one shard file, reporting (via `vanished`) the case where
 * the file was deleted by a racing drained compaction before we could
 * open it — indistinguishable from an empty file at the ResultStore
 * level, so disambiguated by a post-load existence check. */
std::vector<JobResult>
loadInput(StoreInput &input, bool &vanished)
{
    std::vector<JobResult> records =
        ResultStore(input.path).load(&input.stats);
    std::error_code ec;
    vanished = records.empty() && input.stats.corrupt() == 0
        && !std::filesystem::exists(input.path, ec);
    return records;
}

/**
 * One consistent load pass over canonical + shards. A drained
 * worker's compaction running concurrently deletes shards between our
 * enumeration and our read; when that happens the pass is retried
 * from a fresh enumeration (the compaction rewrote the canonical
 * store before deleting any shard, so a consistent snapshot always
 * exists). Bounded: after `kLoadRetries` colliding passes the
 * partial view is used anyway — a partial view can only miss records,
 * so a drain proof over it fails and nothing is written, and dedupe
 * tolerates duplicates.
 */
constexpr int kLoadRetries = 5;

std::vector<JobResult>
loadAllRecords(const std::string &sweepDir,
               std::vector<StoreInput> &shards, std::size_t &input,
               std::size_t &corrupt)
{
    std::vector<JobResult> records;
    for (int attempt = 0;; ++attempt) {
        records.clear();
        shards.clear();
        corrupt = 0;
        bool vanished = false;

        StoreLoadStats canonicalStats;
        records =
            ResultStore(sweepStorePath(sweepDir)).load(&canonicalStats);
        corrupt = canonicalStats.corrupt();
        // Sorted, so the merge input sequence (and therefore the
        // dedup pick among bit-equal duplicates) is independent of
        // directory enumeration order.
        for (const std::string &path :
             listSortedFiles(sweepShardDir(sweepDir), ".jsonl")) {
            StoreInput shard;
            shard.path = path;
            bool gone = false;
            for (JobResult &record : loadInput(shard, gone))
                records.push_back(std::move(record));
            // A shard vanishing mid-pass was retired by a drained
            // compaction: its records are in a canonical store our
            // read may predate, so retry from a fresh pass.
            vanished = vanished || gone;
            corrupt += shard.stats.corrupt();
            if (!gone)
                shards.push_back(std::move(shard));
        }
        if (!vanished || attempt >= kLoadRetries)
            break;
    }
    input = records.size();

    // Canonical/shard overlap is a normal state here (a standalone
    // merge folds shards without removing them), so collapse it
    // silently instead of warning like the single-store loaders do.
    records = dedupeByFingerprint(std::move(records),
                                  /*warnOnDuplicates=*/false);
    std::sort(records.begin(), records.end(),
              [](const JobResult &a, const JobResult &b) {
                  if (a.spec.name != b.spec.name)
                      return a.spec.name < b.spec.name;
                  return a.fingerprint < b.fingerprint;
              });
    return records;
}

/** Move a shard whose load saw corruption into
 * `<dir>/quarantine/` (never deleting evidence; best-effort — a
 * failed rename leaves the file where it was). Returns whether the
 * file was moved. */
bool
quarantineShard(const std::string &shardPath)
{
    namespace fs = std::filesystem;
    const std::string dir = quarantineDirFor(shardPath);
    std::error_code ec;
    fs::create_directories(dir, ec);
    // ".shard" keeps whole quarantined files apart from the per-line
    // envelope files result_store writes under the same directory.
    const std::string base =
        fs::path(shardPath).filename().string() + ".shard";
    fs::path target = fs::path(dir) / base;
    // Keep prior quarantined generations instead of overwriting them.
    for (int n = 1; fs::exists(target, ec); ++n)
        target = fs::path(dir) / (base + "." + std::to_string(n));
    fs::rename(shardPath, target, ec);
    if (ec) {
        std::fprintf(stderr,
                     "treevqa: failed to quarantine shard %s: %s\n",
                     shardPath.c_str(), ec.message().c_str());
        return false;
    }
    std::fprintf(stderr,
                 "treevqa: quarantined corrupt shard %s -> %s\n",
                 shardPath.c_str(), target.string().c_str());
    mergeMetrics().quarantines.inc();
    return true;
}

} // namespace

std::vector<JobResult>
loadMergedRecords(const std::string &sweepDir,
                  std::size_t *corruptLines)
{
    std::vector<StoreInput> shards;
    std::size_t input = 0;
    std::size_t corrupt = 0;
    std::vector<JobResult> records =
        loadAllRecords(sweepDir, shards, input, corrupt);
    if (corruptLines)
        *corruptLines = corrupt;
    return records;
}

SweepMergeStats
compactSweepStore(const std::string &sweepDir,
                  bool removeMergedShards, const DrainProof &proof)
{
    TRACE_SPAN_TIMED("merge.compact", mergeMetrics().compactNs);
    std::vector<StoreInput> shards;
    SweepMergeStats stats;
    const std::vector<JobResult> records = loadAllRecords(
        sweepDir, shards, stats.inputRecords, stats.corruptLines);
    stats.uniqueRecords = records.size();
    stats.shardFiles = shards.size();
    if (proof && !proof(records))
        return stats;
    mergeMetrics().compactions.inc();
    stats.written = true;

    std::string store;
    for (const JobResult &record : records) {
        store += jobResultToStoredLine(record);
        store += '\n';
    }
    writeTextFileAtomic(sweepStorePath(sweepDir), store);
    writeTextFileAtomic(sweepSummaryPath(sweepDir),
                        sweepSummaryJson(records).dump(2) + "\n");

    // Shard deletion requires the caller's drained proof (see
    // header): in a drained sweep every record they could still
    // receive is a deterministic duplicate of one already compacted,
    // so removal after the store is durably in place loses nothing. A
    // file that failed validation is quarantined instead of deleted,
    // whatever the caller asked for — corrupt bytes are evidence, not
    // waste.
    for (const StoreInput &shard : shards) {
        if (shard.stats.corrupt() > 0) {
            if (quarantineShard(shard.path))
                ++stats.quarantinedShards;
        } else if (removeMergedShards) {
            std::remove(shard.path.c_str());
        }
    }
    if (removeMergedShards)
        retireCheckpoints(sweepDir, records);
    {
        JsonValue detail = JsonValue::object();
        detail.set("inputRecords",
                   JsonValue(static_cast<std::uint64_t>(
                       stats.inputRecords)));
        detail.set("uniqueRecords",
                   JsonValue(static_cast<std::uint64_t>(
                       stats.uniqueRecords)));
        detail.set("corruptLines",
                   JsonValue(static_cast<std::uint64_t>(
                       stats.corruptLines)));
        EventLog::instance().emit(event_type::kStoreCompaction, "",
                                  std::move(detail));
    }
    return stats;
}

bool
sweepStoreCompacted(const std::string &sweepDir)
{
    namespace fs = std::filesystem;
    if (!listSortedFiles(sweepShardDir(sweepDir), ".jsonl").empty())
        return false;
    std::error_code summary_ec, store_ec;
    const auto summary =
        fs::last_write_time(sweepSummaryPath(sweepDir), summary_ec);
    const auto store =
        fs::last_write_time(sweepStorePath(sweepDir), store_ec);
    return !summary_ec && !store_ec && summary >= store;
}

} // namespace treevqa
