#include "dist/store_tail.h"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <vector>

#include <sys/stat.h>

#include "common/file_util.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "svc/sweep_dir.h"

namespace treevqa {

namespace {

/** Registry mirror of TailCounters: the per-reader struct stays (so
 * in-process readers can be compared in tests), while these feed the
 * fleet-wide `--metrics` view and the worker report line. */
struct TailMetrics
{
    Counter &refreshes;
    Counter &bytesRead;
    Counter &linesParsed;
    Counter &quarantinedLines;
    Counter &fullRescans;
    Counter &ownRecordsFolded;
    Histogram &refreshNs;
};

TailMetrics &
tailMetrics()
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    static TailMetrics m{
        reg.counter("store.tail_refreshes"),
        reg.counter("store.tail_bytes_read"),
        reg.counter("store.tail_lines_parsed"),
        reg.counter("store.tail_lines_quarantined"),
        reg.counter("store.tail_full_rescans"),
        reg.counter("store.tail_own_folded"),
        reg.histogram("store.tail_refresh_ns")};
    return m;
}

} // namespace

const JobResolution &
StoreTailReader::resolution(const std::string &fingerprint) const
{
    static const JobResolution kUnrecorded;
    const auto it = resolutions_.find(fingerprint);
    return it == resolutions_.end() ? kUnrecorded : it->second;
}

StoreTailReader::StoreTailReader(std::string sweepDir)
    : sweepDir_(std::move(sweepDir))
{
}

void
StoreTailReader::invalidate()
{
    forceRescan_ = true;
}

void
StoreTailReader::fold(const JobResult &record)
{
    // A rebuilt view is re-judged whole, so only deltas to a view the
    // caller has already taken are worth listing.
    if (resolutions_[record.fingerprint].fold(record) && !delta_.rebuilt)
        delta_.changed.push_back(record.fingerprint);
}

StoreTailReader::Delta
StoreTailReader::takeDelta()
{
    Delta delta = std::move(delta_);
    delta_ = Delta{};
    return delta;
}

bool
StoreTailReader::foldOwnAppend(const std::string &path,
                               const std::vector<JobResult> &records,
                               std::uint64_t bytes)
{
    if (forceRescan_)
        return false; // the next refresh rebuilds the view anyway
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return false;
    const auto it = cursors_.find(path);
    Cursor cursor = it == cursors_.end() ? Cursor{} : it->second;
    const std::uint64_t inode = static_cast<std::uint64_t>(st.st_ino);
    // Exactly our bytes past the cursor, in the file the cursor
    // tracks: anything else (a torn write, a sealing newline ahead of
    // them, an unread torn tail, a replaced file) is left to refresh().
    if ((cursor.inode != 0 && cursor.inode != inode)
        || static_cast<std::uint64_t>(st.st_size)
            != cursor.offset + bytes)
        return false;
    cursor.inode = inode;
    cursor.offset += bytes;
    cursor.lines += records.size();
    cursors_[path] = cursor;
    for (const JobResult &record : records)
        fold(record);
    counters_.ownRecordsFolded += records.size();
    tailMetrics().ownRecordsFolded.inc(records.size());
    lastRefreshWasFull_ = false;
    return true;
}

bool
StoreTailReader::consumeAppends(const std::string &path,
                                Cursor &cursor)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return false; // vanished between enumeration and read
    if (cursor.inode == 0)
        cursor.inode = static_cast<std::uint64_t>(st.st_ino);
    else if (cursor.inode != static_cast<std::uint64_t>(st.st_ino))
        return false; // atomically replaced under the cursor
    const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
    if (size < cursor.offset)
        return false; // truncated under the cursor
    if (size == cursor.offset)
        return true;

    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    in.seekg(static_cast<std::streamoff>(cursor.offset));
    std::string chunk(static_cast<std::size_t>(size - cursor.offset),
                      '\0');
    in.read(chunk.data(),
            static_cast<std::streamsize>(chunk.size()));
    chunk.resize(static_cast<std::size_t>(
        std::max<std::streamsize>(0, in.gcount())));
    counters_.bytesRead += chunk.size();
    tailMetrics().bytesRead.inc(chunk.size());

    // Consume complete lines only: a chunk ending without '\n' is an
    // append in flight (or the torn tail of a killed writer, which
    // the next durable append seals with a newline) — leave the
    // cursor at the line start and re-read it once terminated.
    std::size_t pos = 0;
    for (;;) {
        const std::size_t nl = chunk.find('\n', pos);
        if (nl == std::string::npos)
            break;
        const std::string line = chunk.substr(pos, nl - pos);
        ++cursor.lines;
        if (!line.empty()) {
            ++counters_.linesParsed;
            tailMetrics().linesParsed.inc();
            JobResult record;
            std::string reason;
            if (decodeStoredLine(line, record, &reason)
                == StoredLineStatus::Ok) {
                fold(record);
            } else {
                ++counters_.quarantinedLines;
                tailMetrics().quarantinedLines.inc();
                quarantineStoreLine(
                    path, static_cast<std::size_t>(cursor.lines),
                    line, reason);
            }
        }
        pos = nl + 1;
    }
    cursor.offset += pos;
    return true;
}

void
StoreTailReader::refresh()
{
    ++counters_.refreshes;
    tailMetrics().refreshes.inc();
    TRACE_SPAN_TIMED("store.tail_refresh", tailMetrics().refreshNs);
    // A pass that loses a race with a drained worker's compaction (a
    // shard deleted between enumeration and read) resets and retries;
    // a consistent snapshot always exists because compaction rewrites
    // the canonical store before deleting any shard.
    for (int attempt = 0; attempt < 3; ++attempt) {
        // Sorted: `<dir>/results.jsonl` sorts before every
        // `<dir>/workers/*.jsonl`, which the binary search needs.
        std::vector<std::string> files =
            listSortedFiles(sweepShardDir(sweepDir_), ".jsonl");
        const std::string canonical = sweepStorePath(sweepDir_);
        std::error_code ec;
        if (std::filesystem::exists(canonical, ec))
            files.insert(files.begin(), canonical);

        bool reset = forceRescan_;
        if (!reset) {
            // Any tracked file gone from the current set means the
            // layout mutated (a compaction): the map may hold folds
            // of bytes that now live elsewhere, so the only safe
            // continuation is from scratch.
            for (const auto &[path, cursor] : cursors_) {
                (void)cursor;
                if (!std::binary_search(files.begin(), files.end(),
                                        path)) {
                    reset = true;
                    break;
                }
            }
        }
        if (reset) {
            cursors_.clear();
            resolutions_.clear();
            delta_ = Delta{/*rebuilt=*/true, {}};
            forceRescan_ = false;
            ++counters_.fullRescans;
            tailMetrics().fullRescans.inc();
        }
        lastRefreshWasFull_ = cursors_.empty();

        bool collided = false;
        for (const std::string &path : files) {
            if (!consumeAppends(path, cursors_[path])) {
                collided = true;
                break;
            }
        }
        if (!collided)
            return;
        forceRescan_ = true;
    }
}

void
PendingJobs::rebuild(const std::vector<std::string> &fingerprints,
                     const Judge &pending)
{
    const std::size_t n = fingerprints.size();
    indexOf_.clear();
    indexOf_.reserve(n);
    pending_.assign(n, 0);
    tree_.assign(n + 1, 0);
    count_ = 0;
    for (std::size_t i = 0; i < n; ++i) {
        indexOf_.emplace(fingerprints[i], i);
        if (pending(fingerprints[i])) {
            pending_[i] = 1;
            ++count_;
        }
    }
    // Linear Fenwick build: each node passes its sum to its parent.
    for (std::size_t i = 1; i <= n; ++i) {
        tree_[i] += static_cast<std::size_t>(pending_[i - 1]);
        const std::size_t parent = i + (i & (~i + 1));
        if (parent <= n)
            tree_[parent] += tree_[i];
    }
}

void
PendingJobs::update(const std::vector<std::string> &changed,
                    const Judge &pending)
{
    for (const std::string &fingerprint : changed) {
        const auto it = indexOf_.find(fingerprint);
        if (it != indexOf_.end())
            set(it->second, pending(fingerprint));
    }
}

void
PendingJobs::set(std::size_t index, bool pending)
{
    if ((pending_[index] != 0) == pending)
        return;
    pending_[index] = pending ? 1 : 0;
    if (pending)
        ++count_;
    else
        --count_;
    for (std::size_t i = index + 1; i < tree_.size(); i += i & (~i + 1))
        if (pending)
            ++tree_[i];
        else
            --tree_[i];
}

std::size_t
PendingJobs::at(std::size_t rank) const
{
    // Descend to the last position whose prefix sum is <= rank; the
    // next one holds the rank-th pending index.
    const std::size_t n = tree_.size() - 1;
    std::size_t pos = 0;
    for (std::size_t step = std::bit_floor(n); step != 0; step >>= 1)
        if (pos + step <= n && tree_[pos + step] <= rank) {
            pos += step;
            rank -= tree_[pos];
        }
    return pos;
}

} // namespace treevqa
