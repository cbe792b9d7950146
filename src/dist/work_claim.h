/**
 * @file
 * WorkClaim: filesystem-coordinated job leases for the distributed
 * execution layer (src/dist/).
 *
 * One claim file per job fingerprint (`<sweep>/claims/<fp>.lock`)
 * carries the owner id and a wall-clock lease deadline. The protocol
 * needs only three POSIX guarantees that hold on a shared filesystem:
 *
 *  - **Acquire** is `open(O_CREAT|O_EXCL)` — at most one process
 *    across all hosts creates the file.
 *  - **Heartbeat** renewal atomically rewrites the claim (tmp +
 *    rename) with an extended deadline; a renewal that finds the file
 *    gone or owned by someone else reports the lease as lost.
 *  - **Stale takeover** is `rename()` of the expired lock to a
 *    reaper-private name: rename fails for every contender but one, so
 *    exactly one worker wins the right to re-create the lock and
 *    resume the dead worker's job from its fingerprint-keyed
 *    checkpoint. A contender whose rename instead caught the winner's
 *    fresh lock (it read the stale one first) sees different bytes,
 *    links the lock back and loses.
 *
 * Clock model: deadlines are Unix wall-clock milliseconds — the only
 * clock hosts sharing a filesystem have in common — so the lease
 * duration must dominate clock skew (seconds of lease vs millis of
 * skew). Staleness is additionally skew-tolerant in both directions:
 * a claim is reaped only once `now > deadline + grace` where grace =
 * min(skewGraceMs, leaseMs/2) — a reaper whose clock runs *ahead* of
 * the owner's by less than the grace will not steal a live lease —
 * and a deadline implausibly far in the future (beyond now + leaseMs
 * + grace, which no owner within the tolerated skew can write) marks
 * the claim corrupt-or-runaway-clock and therefore immediately
 * reapable, so a dead skewed owner cannot pin a lock forever. The layer above stays correct even if a lease is ever
 * stolen from a live-but-stalled worker: jobs are pure functions of
 * their spec, both contenders produce bit-identical records, and
 * store merging deduplicates by fingerprint. Claims are a scheduling
 * optimization (don't run a job twice), never a correctness
 * requirement.
 *
 * Readers: readClaimFile is the one claim-file parser and listClaims
 * the one `claims/` listing. The worker's pre-compaction check, the
 * supervisor's reap and hung-job watchdog, and `treevqa_run --status`
 * and `--watch` all go through listClaims with their own filters;
 * peek, renew, confirm and release read through readClaimFile. Only
 * tryAcquire reads raw bytes, which its takeover compares after the
 * rename.
 *
 * Fault sites (common/fault_injection.h): "claim.acquire" (the
 * O_EXCL create behaves as failed → acquisition reports contended),
 * "claim.rename" (the takeover rename behaves as lost race),
 * "claim.renew" (a renewal or a read-only ownership check fails →
 * lease reported lost, the injectable heartbeat-loss drill),
 * "claim.release" (the unlink is skipped → lock left behind for a
 * reaper).
 */

#ifndef TREEVQA_DIST_WORK_CLAIM_H
#define TREEVQA_DIST_WORK_CLAIM_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/event_log.h"
#include "common/json.h"

namespace treevqa {

/** The persisted content of one claim file. */
struct ClaimInfo
{
    std::string fingerprint;
    std::string owner;
    /** When the claim was first acquired (Unix ms). */
    std::int64_t acquiredMs = 0;
    /** Lease expiry (Unix ms); past this the claim is reapable. */
    std::int64_t deadlineMs = 0;
    /** Lease duration used for renewals (ms). */
    std::int64_t leaseMs = 0;
    /** Heartbeat count (diagnostic; shown by --status). */
    std::int64_t renewals = 0;
    /**
     * The owner heartbeat's batch tick, shared by every claim of its
     * batch: +1 per heartbeat that saw the running job's iteration
     * move, so not an iteration count. The hung-job watchdog's
     * signal: a lease whose deadline keeps advancing while `progress`
     * does not is a wedged job, not a live one. -1 until the owner
     * first reports progress.
     */
    std::int64_t progress = -1;
    /**
     * The owner's loop is running this job, stamped by the heartbeat
     * (the other claims of a batch are queued or finished). Every
     * claim of a wedged batch freezes together, so this is how the
     * supervisor's watchdog tells which job hung. Written only when
     * true; a missing field reads as false.
     */
    bool running = false;
    /**
     * The writer's hybrid-logical-clock stamp at the write (acquire
     * or latest renewal). Readers observe() it into their own clock,
     * so events a reaper emits after reading a dead owner's claim are
     * causally ordered after the owner's last heartbeat even under
     * wall-clock skew. Every writer stamps it, and a claim file
     * without `hlc` or `progress` reads as torn (reapable).
     */
    Hlc hlc;
};

JsonValue claimToJson(const ClaimInfo &info);
ClaimInfo claimFromJson(const JsonValue &json);

/** Read one claim file. nullopt when it is unreadable (absent,
 * released) or torn/corrupt; callers decide what a torn claim means.
 * The one claim-file parser: every reader of `claims/` goes through
 * it or listClaims. Does not observe the claim's HLC stamp. */
std::optional<ClaimInfo> readClaimFile(const std::string &path);

/** One parseable claim file found by listClaims. */
struct ClaimFile
{
    std::string path;
    ClaimInfo info;
};

/** Every parseable `*.lock` under `claimDir`, sorted by path; torn
 * or vanished claims are skipped. */
std::vector<ClaimFile> listClaims(const std::string &claimDir);

/** Default tolerated reaper/owner wall-clock skew (ms). */
inline constexpr std::int64_t kClaimSkewGraceMs = 1000;

/**
 * Skew-tolerant staleness: the claim is reapable at `nowMs` iff its
 * deadline plus the effective grace has passed. The grace is
 * min(skewGraceMs, leaseMs/2) so short test leases are never swamped
 * by the skew margin, and a deadline beyond nowMs + leaseMs + grace —
 * which no owner within the tolerated skew can write — is immediately
 * reapable. Exposed for the skew tests.
 */
bool claimIsStale(const ClaimInfo &info, std::int64_t nowMs,
                  std::int64_t skewGraceMs = kClaimSkewGraceMs);

/**
 * A held lease on one job fingerprint. Not thread-safe: a claim is
 * owned by one worker loop (the daemon serializes its heartbeat thread
 * against renew/release). Release is explicit — a crashed holder is
 * exactly the case the lease deadline exists for.
 */
class WorkClaim
{
  public:
    WorkClaim() = default;
    WorkClaim(WorkClaim &&other) noexcept;
    WorkClaim &operator=(WorkClaim &&other) noexcept;
    WorkClaim(const WorkClaim &) = delete;
    WorkClaim &operator=(const WorkClaim &) = delete;

    /** The lock file path a fingerprint maps to under `claimDir`. */
    static std::string claimPath(const std::string &claimDir,
                                 const std::string &fingerprint);

    /**
     * Try to claim `fingerprint`. Returns the held claim on success;
     * nullopt when another worker holds an unexpired lease (or won a
     * takeover race). An expired (per claimIsStale, under
     * `skewGraceMs`) or unparseable (torn) claim is reaped via the
     * rename protocol — except an empty one younger than the
     * staleness grace, whose creator is most likely still between its
     * create and its write; `reapedStale`, when non-null, reports whether
     * this acquisition took over a stale lease.
     */
    static std::optional<WorkClaim>
    tryAcquire(const std::string &claimDir,
               const std::string &fingerprint, const std::string &owner,
               std::int64_t leaseMs, bool *reapedStale = nullptr,
               std::int64_t skewGraceMs = kClaimSkewGraceMs);

    /** Read a claim file without touching it (the --status view).
     * nullopt when absent or unreadable. */
    static std::optional<ClaimInfo>
    peek(const std::string &claimDir, const std::string &fingerprint);

    /** Extend the lease by another leaseMs from now (heartbeat),
     * optionally stamping the owner's current progress counter into
     * the claim (`progress` < 0 keeps the previous stamp) and whether
     * the owner's loop is running this job. Returns false — and
     * invalidates this claim — when the lock was lost (file gone or
     * re-owned after a takeover). */
    bool renew(std::int64_t progress = -1, bool running = false);

    /** Read-only ownership check: true while the lock file still
     * names this owner and fingerprint. Unlike renew() it writes
     * nothing and keeps the deadline; false invalidates this claim,
     * like a failed renewal. */
    bool confirm();

    /** Delete the lock if still owned; safe to call when already
     * released or lost. Ownership is read back from the file only
     * when 2/3 of the lease or less is left; with more, no reaper can
     * have taken the claim, and the lock is unlinked unread. */
    void release();

    bool held() const { return !path_.empty(); }
    const ClaimInfo &info() const { return info_; }

  private:
    WorkClaim(std::string path, ClaimInfo info)
        : path_(std::move(path)), info_(std::move(info))
    {
    }

    /** The lock file's content while it still names this owner and
     * fingerprint; otherwise nullopt, and this claim is invalidated. */
    std::optional<ClaimInfo> readOwned();

    std::string path_;
    ClaimInfo info_;
};

} // namespace treevqa

#endif // TREEVQA_DIST_WORK_CLAIM_H
