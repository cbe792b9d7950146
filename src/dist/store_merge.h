/**
 * @file
 * StoreMerge: deterministic merge and compaction of a distributed
 * sweep's result stores.
 *
 * Workers append to per-worker shards (`<dir>/workers/<id>.jsonl`)
 * instead of one shared file, so concurrent processes never interleave
 * partial lines. A shard only ever grows until compaction retires it.
 * The merge pass folds the canonical store plus every shard into one
 * deduplicated record set and compacts it back into
 * `<dir>/results.jsonl` (sorted by job name) and `<dir>/summary.json`
 * — byte-identical, timing fields excluded, to what a single-process
 * JobScheduler run of the same spec would have produced, because every
 * record is a pure function of its spec and the summary excludes wall
 * time.
 *
 * Compaction is idempotent and safe to run concurrently: all writes
 * are atomic whole-file replacements and duplicate records are
 * bit-identical where it matters. No merge lock is needed. Readers
 * that race a compaction's shard deletion retry their load pass
 * (bounded) until they see a consistent snapshot. Shard *deletion* by
 * compaction is the one step that needs a precondition: it is only
 * safe once the sweep is drained (no worker can still append), so
 * only the drained-worker path requests it — a standalone merge over
 * a live fleet folds the shards without removing them.
 */

#ifndef TREEVQA_DIST_STORE_MERGE_H
#define TREEVQA_DIST_STORE_MERGE_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "svc/result_store.h"

namespace treevqa {

/** What a compaction pass saw and did. */
struct SweepMergeStats
{
    /** Records read across the canonical store and shards. */
    std::size_t inputRecords = 0;
    /** Records surviving fingerprint deduplication. */
    std::size_t uniqueRecords = 0;
    /** Worker shard files merged (and, when requested, removed). */
    std::size_t shardFiles = 0;
    /** Lines that failed validation (torn, CRC or fingerprint
     * mismatch) across the canonical store and shards. */
    std::size_t corruptLines = 0;
    /** Shards moved to `<dir>/quarantine/` instead of deleted
     * because at least one of their lines failed validation. A
     * quarantined file's healthy records were still folded into the
     * canonical store; the file is preserved only as forensic
     * evidence. */
    std::size_t quarantinedShards = 0;
    /** The store and summary were rewritten: false only when the
     * caller's drain proof rejected the load, and then nothing was
     * written, moved or removed. */
    bool written = false;
};

/** A drain proof over one load: true when the deduplicated record
 * set (fold survivors stamped with their folded attempts, see
 * dedupeByFingerprint) resolves every job of the caller's list. */
using DrainProof =
    std::function<bool(const std::vector<JobResult> &records)>;

/**
 * Load every record of the sweep directory — the canonical store
 * first, then worker shards in sorted filename order — deduplicated
 * by fingerprint (newest complete record wins) and sorted by job name
 * (ties broken by fingerprint): a one-shot, read-only merged view for
 * tests. Worker scans and `treevqa_run --status` read incrementally
 * through StoreTailReader (dist/store_tail.h) instead. A load that
 * races a drained worker's compaction (an enumerated shard deleted
 * before it could be read) is retried from scratch, bounded, so the
 * returned set never silently misses that shard's records.
 * `corruptLines`, when non-null, reports the count of lines that
 * failed validation (and were quarantined) across all inputs.
 */
std::vector<JobResult>
loadMergedRecords(const std::string &sweepDir,
                  std::size_t *corruptLines = nullptr);

/**
 * Merge the shards into the canonical store: atomically rewrite
 * `results.jsonl` with the deduplicated name-sorted record set and
 * write the deterministic `summary.json`.
 *
 * `removeMergedShards` deletes the shard files afterwards, and
 * retires (retireCheckpoints) the checkpoint files left behind by
 * completed jobs (a kill between a record landing and its committer
 * retiring the checkpoint); pass true
 * only when the sweep is provably drained (every job recorded — the
 * worker daemon's merge-on-drain path), because a live worker could
 * otherwise append a completed job's record to a shard between our
 * load and its deletion, losing that record. With false
 * (the `--merge-only` CLI), they are folded in but left for the
 * draining fleet to retire.
 *
 * A shard containing any line that fails validation is never deleted:
 * it is renamed into `<dir>/quarantine/` (counted in
 * quarantinedShards) so the corrupt evidence survives compaction. The
 * `--merge-only` CLI exits non-zero when corruptLines > 0.
 *
 * With a `proof`, the compaction's own load is the drain proof: the
 * record set it loaded from offset 0 is written only when `proof`
 * accepts it; otherwise nothing is written (stats.written false) and
 * the caller keeps scanning. So a drained worker decodes every record
 * once for both the proof and the rewrite.
 */
SweepMergeStats compactSweepStore(const std::string &sweepDir,
                                  bool removeMergedShards,
                                  const DrainProof &proof = nullptr);

/**
 * Whether the sweep directory is already compacted: no worker shard
 * is left to fold and `summary.json` is at least as new as
 * `results.jsonl` (a compaction writes the store, then the summary,
 * then removes the shards). A drained worker that finds this has
 * nothing to merge, so it skips compactSweepStore's full re-read and
 * rewrite of both files.
 */
bool sweepStoreCompacted(const std::string &sweepDir);

} // namespace treevqa

#endif // TREEVQA_DIST_STORE_MERGE_H
