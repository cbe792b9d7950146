/**
 * @file
 * StoreTailReader: the merged-record view every scan loop reads, kept
 * up to date in O(appended bytes) instead of O(store bytes).
 *
 * The reader keeps one byte cursor (inode + offset + line number) per
 * store file — the canonical store and every worker shard — and, per
 * refresh, stats the current file set and parses only the bytes
 * appended since the last refresh, folding each decoded record into
 * an in-memory fingerprint → JobResolution map
 * (svc/result_store.h: the one record-fold rule). A full load is the
 * same read from offset 0: invalidate() then refresh().
 *
 * Own commits: a writer reads its own buffered stores without going
 * back to memory (the store-buffer view of "Reasoning About TSO
 * Programs Using Reduction and Abstraction"). After a durable append
 * returns, foldOwnAppend() folds the appended records straight from
 * memory and moves that file's cursor past them, so a worker never
 * decodes its own shard. It folds only when a stat proves the file is
 * the tracked inode and exactly cursor + appended bytes long; a torn
 * write, a sealing newline or an unread torn tail fails that test and
 * the next refresh reads the bytes as it would anyway.
 *
 * Deltas: takeDelta() reports the fingerprints whose folded verdict
 * changed since the last call (by a refresh or an own fold), or that
 * the view was rebuilt from offset 0. A caller's derived state (the
 * worker's pending set, PendingJobs below) follows the deltas and is
 * rebuilt only after a rebuild.
 *
 * Validation parity: every appended line runs the same
 * decodeStoredLine chain as ResultStore::load, torn trailing lines
 * (no '\n' yet — an append in flight) are left unconsumed and re-read
 * once sealed, and corrupt lines are quarantined through the same
 * once-per-(file,line,content) gate, so a record rejected by the full
 * loader is rejected incrementally too, exactly once.
 *
 * Invalidation: the cursors are only valid while every tracked file
 * grows in place. Compaction rewrites the canonical store (new inode)
 * and, once the sweep is drained, deletes the shards — any tracked
 * file vanishing, shrinking or changing identity collapses the whole
 * view and the next refresh is a clean full rescan (counted, so
 * benches and tests can assert the fallback fired). That keeps
 * correctness trivially equivalent to a full read at the cost of
 * O(store) work per compaction rather than per scan; workers compact
 * only once the sweep is drained (a standalone `--merge-only` is the
 * one other compactor), so a drain rescans nothing mid-way.
 *
 * Single-threaded; each worker, supervisor or status probe owns its
 * own reader.
 */

#ifndef TREEVQA_DIST_STORE_TAIL_H
#define TREEVQA_DIST_STORE_TAIL_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "svc/result_store.h"

namespace treevqa {

/** Tail-reader observability: the currency of the claim-path bench
 * series and the scale tests. */
struct TailCounters
{
    /** refresh() calls. */
    std::uint64_t refreshes = 0;
    /** Payload bytes actually read (appended-and-consumed). */
    std::uint64_t bytesRead = 0;
    /** Store lines decoded (valid or not). */
    std::uint64_t linesParsed = 0;
    /** Lines that failed decoding and were quarantined. */
    std::uint64_t quarantinedLines = 0;
    /** Cursor invalidations that forced a clean full rescan. */
    std::uint64_t fullRescans = 0;
    /** Records folded from memory by foldOwnAppend (never read). */
    std::uint64_t ownRecordsFolded = 0;
};

class StoreTailReader
{
  public:
    explicit StoreTailReader(std::string sweepDir);

    /**
     * Bring the view up to date: stat the current store file set
     * (canonical + shards), fall back to a full rescan if any
     * tracked file vanished / shrank / changed inode, then parse only
     * the newly appended complete lines into the resolution map.
     */
    void refresh();

    /** Drop every cursor and resolution so the next refresh() is a
     * clean full rescan (counted in fullRescans). For callers that
     * just mutated the store layout themselves (compaction). */
    void invalidate();

    /**
     * Fold `records`, which this process has just appended durably to
     * the store file `path` as one line each (`bytes` bytes in all),
     * from memory, and move that file's cursor past them. Folds only
     * when a stat shows `path` is the tracked inode (or, untracked, a
     * new file) exactly cursor offset + `bytes` long and no rescan is
     * pending; otherwise folds nothing, and the next refresh() reads
     * the bytes. Returns whether it folded.
     */
    bool foldOwnAppend(const std::string &path,
                       const std::vector<JobResult> &records,
                       std::uint64_t bytes);

    /** What changed in the view since the last takeDelta(). */
    struct Delta
    {
        /** The view was built from offset 0 meanwhile (the first
         * refresh, or any rescan): state derived from it must be
         * rebuilt, and `changed` is empty. */
        bool rebuilt = false;
        /** Fingerprints whose folded resolution changed, in fold
         * order (repeats possible). */
        std::vector<std::string> changed;
    };

    /** The changes since the last call; resets them. */
    Delta takeDelta();

    /** The folded view (valid until the next refresh/invalidate). */
    const std::map<std::string, JobResolution> &resolutions() const
    {
        return resolutions_;
    }

    /** The folded verdict for one fingerprint; an empty (pending)
     * resolution when no record of it has been seen. */
    const JobResolution &resolution(const std::string &fingerprint) const;

    const TailCounters &counters() const { return counters_; }

    /** True when the last refresh() built the whole view from offset
     * 0 (a fresh reader, or one just invalidated or reset) and no own
     * append was folded since: the view is then exactly what
     * invalidate() + refresh() would rebuild. */
    bool lastRefreshWasFull() const { return lastRefreshWasFull_; }

  private:
    struct Cursor
    {
        /** Identity when first tracked (0 = not yet stat'ed). */
        std::uint64_t inode = 0;
        /** Bytes consumed; always at a line boundary. */
        std::uint64_t offset = 0;
        /** Complete lines consumed — 1-based numbering parity with
         * ResultStore::load, so the quarantine once-only gate sees
         * identical (path, line, content) keys from both readers. */
        std::uint64_t lines = 0;
    };

    /** Consume bytes appended to `path` past its cursor. Returns
     * false when the file changed identity under the cursor (the
     * caller resets the view). */
    bool consumeAppends(const std::string &path, Cursor &cursor);

    /** Fold one decoded record and note its verdict change. */
    void fold(const JobResult &record);

    std::string sweepDir_;
    std::map<std::string, Cursor> cursors_;
    std::map<std::string, JobResolution> resolutions_;
    TailCounters counters_;
    Delta delta_{/*rebuilt=*/true, {}};
    bool forceRescan_ = false;
    bool lastRefreshWasFull_ = false;
};

/**
 * The indices of one job list's still-pending jobs, kept from
 * StoreTailReader deltas instead of an O(N) walk per scan: update()
 * re-judges only the jobs whose fingerprints changed; rebuild() is
 * the walk, for a new job list or a view rebuilt from offset 0.
 * Ordered by job index; at(rank) selects through a Fenwick tree over
 * the indices, so a scan's rotation costs O(log N) per visited job.
 */
class PendingJobs
{
  public:
    /** True while the job with this fingerprint is still pending. */
    using Judge = std::function<bool(const std::string &fingerprint)>;

    /** Judge every job of `fingerprints` (the O(N) walk). */
    void rebuild(const std::vector<std::string> &fingerprints,
                 const Judge &pending);

    /** Re-judge the jobs among `changed`; fingerprints outside the
     * job list are ignored. */
    void update(const std::vector<std::string> &changed,
                const Judge &pending);

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** The pending job index of rank `rank` (< size()), ascending. */
    std::size_t at(std::size_t rank) const;

  private:
    void set(std::size_t index, bool pending);

    std::unordered_map<std::string, std::size_t> indexOf_;
    std::vector<char> pending_;
    /** Fenwick tree of pending_ (1-based). */
    std::vector<std::size_t> tree_;
    std::size_t count_ = 0;
};

} // namespace treevqa

#endif // TREEVQA_DIST_STORE_TAIL_H
