/**
 * @file
 * ResultStore: the append-only JSONL record of scenario jobs, plus the
 * aggregate sweep summary.
 *
 * Each completed job appends exactly one JSON object per line (spec +
 * fingerprint, energy trajectory, evaluation counts, wall time,
 * backend) carrying a trailing "crc" member — the CRC32 of the record
 * serialization without it (common/file_util's stampCrc) — so a torn
 * or corrupted line is *detected*, never silently half-parsed; a line
 * without a "crc" member is rejected as a CRC mismatch. Lines are
 * written under a mutex through the durable append path (file_util:
 * torn-line sealing, EINTR retries, fsync), so a killed sweep loses at
 * most the lines being written (one record, or one worker batch);
 * load() quarantines any line that fails to parse, lacks or fails its
 * CRC, or whose stored fingerprint contradicts its spec, copying it to
 * `<dir>/quarantine/<store-file>` (once per process) and skipping it —
 * which together with the scheduler's fingerprint skip makes the store
 * the job-level resume ledger: a quarantined record's job simply
 * reruns.
 *
 * Line *order* is completion order (nondeterministic under a
 * concurrent scheduler); record *content* is deterministic except for
 * wallSeconds. sweepSummaryJson() is the canonical deterministic
 * view: records sorted by job name with timing excluded — two runs of
 * the same sweep must produce byte-identical summaries.
 */

#ifndef TREEVQA_SVC_RESULT_STORE_H
#define TREEVQA_SVC_RESULT_STORE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "svc/scenario_runner.h"

namespace treevqa {

/** JobResult <-> one JSONL record (without the "crc" member).
 * jobResultFromJson throws on a failed record that accounts for no
 * attempt (`attempts` < 1), so such a line is quarantined like any
 * other malformed record. */
JsonValue jobResultToJson(const JobResult &result);
JobResult jobResultFromJson(const JsonValue &json);

/** The canonical stored line for a record: its JSON serialization
 * with the trailing "crc" member stamped in (no newline). Append and
 * compaction both write this form. */
std::string jobResultToStoredLine(const JobResult &result);

/** Verdict of validating one stored JSONL line (the full PR-6 chain:
 * JSON parse → CRC check → record decode → fingerprint-vs-spec).
 * Shared by ResultStore::load and the incremental tail reader
 * (dist/store_tail.h) so both paths reject exactly the same lines. */
enum class StoredLineStatus
{
    Ok,
    /** The line did not parse as JSON, or parsed but was not a valid
     * record (missing/mistyped fields). */
    ParseFailure,
    /** The line's trailing "crc" member was missing or contradicted
     * its content. */
    CrcMismatch,
    /** The stored fingerprint contradicted the stored spec. */
    FingerprintMismatch
};

/** Run the full validation chain on one stored line. On Ok, `record`
 * receives the decoded record; otherwise `reason` (when non-null)
 * receives a human-readable rejection reason. Pure — quarantining is
 * the caller's job (quarantineStoreLine) — apart from counting every
 * call in `store.lines_decoded`, the currency of the decodes-per-job
 * checks. */
StoredLineStatus decodeStoredLine(const std::string &line,
                                  JobResult &record,
                                  std::string *reason = nullptr);

/**
 * Quarantine one corrupt store line: common/file_util's quarantineLine
 * appends its envelope durably under `quarantineDirFor(storePath)`,
 * once per (store, line, content) per process, and that first time
 * also journals a store.quarantine event.
 */
void quarantineStoreLine(const std::string &storePath,
                         std::size_t lineNumber,
                         const std::string &line,
                         const std::string &reason);

/** What a load pass saw. corrupt() is the lines that failed any
 * validation and were skipped (and, best-effort, quarantined). */
struct StoreLoadStats
{
    /** Records that parsed and validated. */
    std::size_t records = 0;
    /** Lines that failed to parse as a record at all. */
    std::size_t parseFailures = 0;
    /** Parseable lines with no CRC32 or one that contradicted their
     * content. */
    std::size_t crcMismatches = 0;
    /** Records whose stored fingerprint contradicted their spec. */
    std::size_t fingerprintMismatches = 0;

    std::size_t corrupt() const
    {
        return parseFailures + crcMismatches + fingerprintMismatches;
    }
};

/** What a group-commit append wrote. */
struct StoreAppend
{
    /** Bytes the lines take: what an untorn append adds, not counting
     * a newline that seals a torn tail. */
    std::uint64_t bytes = 0;
    /** Records whose lines landed whole: the first `landed` of the
     * batch (a torn write keeps a prefix of it). */
    std::size_t landed = 0;
};

/** Append-only JSONL file of job records. */
class ResultStore
{
  public:
    /** Opens lazily; the file is created on first append. */
    explicit ResultStore(std::string path);

    const std::string &path() const { return path_; }

    /** Parse all stored records. A line that fails validation (torn,
     * corrupt, CRC or fingerprint mismatch) is quarantined to
     * `<dir>/quarantine/` and skipped instead of failing the resume;
     * `stats`, when non-null, reports what was seen. */
    std::vector<JobResult> load(StoreLoadStats *stats = nullptr) const;

    /** Append one CRC-stamped record as a single durable line
     * (fsynced; fault site "store.append"). Thread-safe. */
    void append(const JobResult &result);

    /** Group commit: append every record, one line each, with one
     * write and one fsync. The "store.append" site is evaluated once
     * for the whole batch, so a torn write keeps a prefix of it: the
     * whole lines before the tear stand, the torn one is quarantined
     * on load. No-op on an empty batch. Thread-safe. Reports the
     * lines' bytes and how many records landed whole. */
    StoreAppend append(const std::vector<JobResult> &results);

  private:
    /** Append `lines` durably; returns how many of its bytes were
     * written (fewer when the "store.append" site tears the write). */
    std::size_t appendLines(std::string lines);

    std::string path_;
    std::mutex mutex_;
};

/** The quarantine directory used for corrupt lines and shards of the
 * stores under `parentDir` (i.e. `<parentDir>/quarantine`). */
std::string quarantineDirFor(const std::string &storePath);

/**
 * The fleet verdict for one job fingerprint: every record seen for it,
 * folded by the one rule every reader of the record stores shares —
 * dedupeByFingerprint, the incremental tail reader
 * (dist/store_tail.h), the worker's scan and claim re-check, the
 * supervisor's watchdog and drained check, and `treevqa_run --status`.
 *
 * Records rank completed > failed > halted partial. A record of a
 * lower rank never replaces a higher one; within a rank the later
 * record's body wins. Failed records of one job (each worker in a
 * fleet writes its own) sum their `attempts` and OR their `timedOut`
 * — the substrate of the fleet-wide poison budget
 * (dist/worker_daemon.h). The verdict is independent of fold order;
 * only which equal-rank body survives depends on it.
 *
 * Carries only the scalars verdicts and the status view need, never
 * the trajectory/parameter bodies, which is what lets a 10^6-job view
 * fit in memory.
 */
struct JobResolution
{
    bool completed = false;
    bool failed = false;
    /** Cumulative fleet-wide failed attempts (when failed). */
    int attempts = 0;
    bool timedOut = false;
    /** Display scalars of the surviving record (status view). */
    int iterations = 0;
    double finalEnergy = 0.0;
    std::uint64_t shotsUsed = 0;
    std::string errorMessage;

    /** Fold one record in. Returns true when its body became the
     * survivor (it outranked or, at equal rank, followed the held
     * one). */
    bool fold(const JobResult &record);

    /** Recorded fleet-wide attempts a claimant must not spend again
     * (0 unless the verdict is a failure). */
    int priorAttempts() const { return failed ? attempts : 0; }

    /** Completed, or failed with the cumulative attempts at or past
     * `maxJobAttempts`. A failure below the budget leaves the job
     * pending: another worker may still spend the remaining
     * attempts. */
    bool resolved(int maxJobAttempts) const
    {
        return completed || (failed && attempts >= maxJobAttempts);
    }
};

/**
 * Collapse duplicate-fingerprint records to one per job by folding
 * each fingerprint's records (in the given order, i.e. append order)
 * through JobResolution: the survivor is the body fold() kept, stamped
 * with the folded `attempts` and `timedOut`. Duplicates arise when
 * concurrent runs over one reused run directory record the same job,
 * or when per-worker store shards from a distributed sweep are merged
 * after a lease was reclaimed mid-job. With `warnOnDuplicates`, warns on stderr once per
 * duplicated fingerprint. Callers for whom overlap is expected (the
 * merged canonical+shard view of a distributed sweep after a
 * standalone merge) pass false to keep the warning meaningful for the
 * case it exists for: a genuinely reused run directory. The surviving
 * records keep first-occurrence order.
 */
std::vector<JobResult>
dedupeByFingerprint(std::vector<JobResult> records,
                    bool warnOnDuplicates = true);

/**
 * Deterministic aggregate summary: jobs sorted by name, per-job
 * energies/iterations/shots/backend, sweep totals. Contains no
 * timing, so two runs of the same sweep (fresh, resumed, any
 * concurrency) serialize byte-identically.
 */
JsonValue sweepSummaryJson(const std::vector<JobResult> &results);

/** Human-readable per-job table + totals (includes wall time). */
std::string sweepSummaryText(const std::vector<JobResult> &results);

} // namespace treevqa

#endif // TREEVQA_SVC_RESULT_STORE_H
