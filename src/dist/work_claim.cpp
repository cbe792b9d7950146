#include "dist/work_claim.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include <unistd.h>

#include "common/fault_injection.h"
#include "common/file_util.h"

namespace treevqa {

bool
claimIsStale(const ClaimInfo &info, std::int64_t nowMs,
             std::int64_t skewGraceMs)
{
    const std::int64_t grace =
        std::min(skewGraceMs, std::max<std::int64_t>(
                                  0, info.leaseMs / 2));
    // No owner within the tolerated skew can write a deadline more
    // than one lease (plus grace) ahead of real time, so a deadline
    // out past that bound is corrupt or written by a runaway clock —
    // reapable now, not in an hour.
    if (info.deadlineMs > nowMs + info.leaseMs + grace)
        return true;
    return nowMs > info.deadlineMs + grace;
}

JsonValue
claimToJson(const ClaimInfo &info)
{
    JsonValue out = JsonValue::object();
    out.set("fingerprint", JsonValue(info.fingerprint));
    out.set("owner", JsonValue(info.owner));
    out.set("acquiredMs", JsonValue(info.acquiredMs));
    out.set("deadlineMs", JsonValue(info.deadlineMs));
    out.set("leaseMs", JsonValue(info.leaseMs));
    out.set("renewals", JsonValue(info.renewals));
    out.set("progress", JsonValue(info.progress));
    if (info.running)
        out.set("running", JsonValue(true));
    out.set("hlc", hlcToJson(info.hlc));
    return out;
}

ClaimInfo
claimFromJson(const JsonValue &json)
{
    ClaimInfo info;
    info.fingerprint = json.at("fingerprint").asString();
    info.owner = json.at("owner").asString();
    info.acquiredMs = json.at("acquiredMs").asInt();
    info.deadlineMs = json.at("deadlineMs").asInt();
    info.leaseMs = json.at("leaseMs").asInt();
    info.renewals = json.at("renewals").asInt();
    info.progress = json.at("progress").asInt();
    const JsonValue *running = json.find("running");
    info.running = running && running->asBool();
    info.hlc = hlcFromJson(json.at("hlc"));
    return info;
}

namespace {

/** Claim-file bytes as a claim; nullopt when torn or corrupt. */
std::optional<ClaimInfo>
parseClaim(const std::string &text)
{
    try {
        return claimFromJson(JsonValue::parse(text));
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

} // namespace

std::optional<ClaimInfo>
readClaimFile(const std::string &path)
{
    std::string text;
    if (!readTextFile(path, text))
        return std::nullopt;
    return parseClaim(text);
}

std::vector<ClaimFile>
listClaims(const std::string &claimDir)
{
    std::vector<ClaimFile> claims;
    for (std::string &path : listSortedFiles(claimDir, ".lock"))
        if (std::optional<ClaimInfo> info = readClaimFile(path))
            claims.push_back({std::move(path), std::move(*info)});
    return claims;
}

std::string
WorkClaim::claimPath(const std::string &claimDir,
                     const std::string &fingerprint)
{
    return (std::filesystem::path(claimDir)
            / (sanitizeFileToken(fingerprint) + ".lock"))
        .string();
}

WorkClaim::WorkClaim(WorkClaim &&other) noexcept
    : path_(std::move(other.path_)), info_(std::move(other.info_))
{
    other.path_.clear();
}

WorkClaim &
WorkClaim::operator=(WorkClaim &&other) noexcept
{
    if (this != &other) {
        path_ = std::move(other.path_);
        info_ = std::move(other.info_);
        other.path_.clear();
    }
    return *this;
}

std::optional<WorkClaim>
WorkClaim::tryAcquire(const std::string &claimDir,
                      const std::string &fingerprint,
                      const std::string &owner, std::int64_t leaseMs,
                      bool *reapedStale, std::int64_t skewGraceMs)
{
    if (reapedStale)
        *reapedStale = false;
    if (const FaultHit hit = FAULT_POINT("claim.acquire"))
        if (hit.action == FaultAction::FailErrno)
            return std::nullopt; // behaves as a contended claim
    const std::string path = claimPath(claimDir, fingerprint);

    ClaimInfo mine;
    mine.fingerprint = fingerprint;
    mine.owner = owner;
    mine.acquiredMs = unixTimeMs();
    mine.deadlineMs = mine.acquiredMs + leaseMs;
    mine.leaseMs = leaseMs;
    mine.hlc = HlcClock::instance().tick();
    const std::string content = claimToJson(mine).dump() + "\n";

    if (tryCreateExclusiveText(path, content))
        return WorkClaim(path, mine);

    // Someone holds (or held) it: expired and torn claims are
    // reapable, live ones are not.
    std::string text;
    if (!readTextFile(path, text))
        return std::nullopt; // released between our create and read
    // Empty: most likely a live creator between its O_EXCL create and
    // its one write(). Reaping it would admit two owners, so it counts
    // as contended until the staleness grace has passed since then.
    if (text.empty()) {
        std::error_code ec;
        const auto age = std::filesystem::file_time_type::clock::now()
            - std::filesystem::last_write_time(path, ec);
        if (!ec
            && age < std::chrono::milliseconds(
                   std::min(skewGraceMs, leaseMs / 2)))
            return std::nullopt;
    }
    // Unparseable: the creator died mid-write or the file was
    // corrupted — reapable either way; a double claim only costs
    // duplicate (identical) work.
    if (const std::optional<ClaimInfo> held = parseClaim(text)) {
        // Merge the owner's stamp: everything we write from here on
        // (the takeover, the lease.reaped event) orders causally
        // after the dead owner's last heartbeat.
        HlcClock::instance().observe(held->hlc);
        if (!claimIsStale(*held, unixTimeMs(), skewGraceMs))
            return std::nullopt;
    }

    // Takeover: rename the stale lock to a reaper-private name.
    // rename() succeeds for exactly one contender (the source is gone
    // for everyone after), so the winner alone re-creates the lock.
    const std::string reaped =
        path + ".reap." + sanitizeFileToken(owner);
    if (const FaultHit hit = FAULT_POINT("claim.rename"))
        if (hit.action == FaultAction::FailErrno)
            return std::nullopt; // behaves as a lost takeover race
    if (std::rename(path.c_str(), reaped.c_str()) != 0)
        return std::nullopt;
    // The rename takes whatever lock sits at `path` now — not
    // necessarily the stale one judged above: a faster contender may
    // already have reaped it and created its own live lock. Keeping
    // that would admit two winners, so check the bytes; on a mismatch
    // put the live lock back (link, so never over a newer one) and
    // lose the race.
    std::string taken;
    if (!readTextFile(reaped, taken) || taken != text) {
        ::link(reaped.c_str(), path.c_str());
        std::remove(reaped.c_str());
        return std::nullopt;
    }
    std::remove(reaped.c_str());
    mine.acquiredMs = unixTimeMs();
    mine.deadlineMs = mine.acquiredMs + leaseMs;
    mine.hlc = HlcClock::instance().tick();
    if (!tryCreateExclusiveText(path, claimToJson(mine).dump() + "\n"))
        return std::nullopt; // someone slid in after our rename
    if (reapedStale)
        *reapedStale = true;
    return WorkClaim(path, mine);
}

std::optional<ClaimInfo>
WorkClaim::peek(const std::string &claimDir,
                const std::string &fingerprint)
{
    std::optional<ClaimInfo> info =
        readClaimFile(claimPath(claimDir, fingerprint));
    if (info)
        HlcClock::instance().observe(info->hlc);
    return info;
}

bool
WorkClaim::renew(std::int64_t progress, bool running)
{
    if (path_.empty())
        return false;
    const std::optional<ClaimInfo> held = readOwned();
    if (!held)
        return false;
    info_.renewals = held->renewals + 1;
    info_.deadlineMs = unixTimeMs() + info_.leaseMs;
    if (progress >= 0)
        info_.progress = progress;
    info_.running = running;
    info_.hlc = HlcClock::instance().tick();
    // Best effort, like the exclusive create: a renewal lost to a
    // power cut is a lease that expires, which reaping already covers.
    writeTextFileAtomic(path_, claimToJson(info_).dump() + "\n",
                        Durability::BestEffort);
    return true;
}

bool
WorkClaim::confirm()
{
    return !path_.empty() && readOwned().has_value();
}

std::optional<ClaimInfo>
WorkClaim::readOwned()
{
    if (const FaultHit hit = FAULT_POINT("claim.renew"))
        if (hit.action == FaultAction::FailErrno) {
            // Injected heartbeat loss: the owner believes the lease
            // is gone and abandons the claim, leaving the (now
            // unrenewed) lock for a reaper.
            path_.clear();
            return std::nullopt;
        }
    // Gone (reaped from under us), torn, or re-owned after a
    // takeover: the lease is lost.
    std::optional<ClaimInfo> held = readClaimFile(path_);
    if (!held || held->owner != info_.owner
        || held->fingerprint != info_.fingerprint) {
        path_.clear();
        return std::nullopt;
    }
    return held;
}

void
WorkClaim::release()
{
    if (path_.empty())
        return;
    if (const FaultHit hit = FAULT_POINT("claim.release"))
        if (hit.action == FaultAction::FailErrno) {
            // Unlink "fails": the lock is left behind and must be
            // reaped as stale by whoever wants the job's slot next.
            path_.clear();
            return;
        }
    // Delete only if still ours: after a lost lease the file (if any)
    // belongs to the worker that reaped it, and corrupt content under
    // our path is left for a reaper. With more than 2/3 of the lease
    // left no reaper can have taken it (the rule the worker's commit
    // confirms ownership by), so the read is skipped.
    if (3 * (info_.deadlineMs - unixTimeMs()) > 2 * info_.leaseMs) {
        std::remove(path_.c_str());
    } else {
        const std::optional<ClaimInfo> held = readClaimFile(path_);
        if (held && held->owner == info_.owner)
            std::remove(path_.c_str());
    }
    path_.clear();
}

} // namespace treevqa
