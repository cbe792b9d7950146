#include "common/fault_injection.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "common/file_util.h"
#include "common/json.h"
#include "common/rng.h"

namespace treevqa {

std::size_t
FaultHit::tornPrefix(std::size_t size) const
{
    const double keep = std::clamp(keepFraction, 0.0, 1.0);
    std::size_t prefix =
        static_cast<std::size_t>(static_cast<double>(size) * keep);
    // Never tear into nothing-at-all unless asked: keepFraction 0
    // means an empty file, anything else keeps at least one byte so
    // "torn" is distinguishable from "never written".
    if (prefix == 0 && keep > 0.0 && size > 0)
        prefix = 1;
    return std::min(prefix, size);
}

/** One armed plan entry plus its mutable trigger state. */
struct FaultInjection::Entry
{
    std::string site;
    FaultAction action = FaultAction::None;
    int err = 0;
    std::int64_t delayMs = 0;
    double keepFraction = 0.5;
    /** hit-count trigger (1-based); 0 = probability trigger. */
    std::uint64_t hit = 0;
    double probability = 0.0;
    /** Max fires (0 = unlimited). */
    std::uint64_t times = 1;
    /** Shared-budget token directory ("" = per-process budget). */
    std::string tokens;
    /** Position in the plan (names the entry's token files). */
    std::size_t index = 0;

    std::uint64_t fired = 0;
    /** Lowest token number not yet seen taken. */
    std::uint64_t nextToken = 0;
    /** Dedicated Bernoulli stream (probability triggers). */
    Rng rng{0};

    /**
     * Claim one of the fleet-wide fire tokens. A raw
     * open(O_CREAT|O_EXCL), not tryCreateExclusiveText: that helper's
     * own `file.create_exclusive` site would re-enter evaluate()
     * under its mutex. Tokens are never removed, so numbers below
     * nextToken stay taken.
     */
    bool claimToken()
    {
        for (; nextToken < times; ++nextToken) {
            const std::string path = tokens + "/fault-"
                + std::to_string(index) + "-"
                + std::to_string(nextToken);
            const int fd =
                ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
            if (fd >= 0) {
                ::close(fd);
                ++nextToken;
                return true;
            }
        }
        return false;
    }
};

std::atomic<bool> &
FaultInjection::armedFlag()
{
    static std::atomic<bool> flag{false};
    return flag;
}

FaultInjection &
FaultInjection::instance()
{
    // Leaked singleton: a site evaluated during exit (a pool thread
    // or another static's destructor still writing) must never find
    // the registry already destroyed.
    static FaultInjection *registry = new FaultInjection();
    return *registry;
}

int
faultErrnoFromName(const std::string &name)
{
    static const std::map<std::string, int> known = {
        {"EINTR", EINTR},   {"EAGAIN", EAGAIN}, {"EBUSY", EBUSY},
        {"EIO", EIO},       {"ENOSPC", ENOSPC}, {"EACCES", EACCES},
        {"ENOENT", ENOENT}, {"EEXIST", EEXIST}, {"EMFILE", EMFILE},
        {"ENFILE", ENFILE}, {"EROFS", EROFS},   {"ESTALE", ESTALE},
    };
    const auto it = known.find(name);
    if (it != known.end())
        return it->second;
    char *end = nullptr;
    const long value = std::strtol(name.c_str(), &end, 10);
    if (end != name.c_str() && *end == '\0' && value > 0)
        return static_cast<int>(value);
    throw std::invalid_argument("fault plan: unknown errno \"" + name
                                + "\"");
}

namespace {

FaultAction
actionFromName(const std::string &name)
{
    if (name == "fail-errno")
        return FaultAction::FailErrno;
    if (name == "torn-write")
        return FaultAction::TornWrite;
    if (name == "delay-ms")
        return FaultAction::DelayMs;
    if (name == "crash")
        return FaultAction::Crash;
    throw std::invalid_argument("fault plan: unknown action \"" + name
                                + "\" (expected \"fail-errno\", "
                                  "\"torn-write\", \"delay-ms\" or "
                                  "\"crash\")");
}

/** SplitMix64 step: derives each entry's private trigger stream from
 * (plan seed, entry index) so adding an entry never shifts another
 * entry's schedule. */
std::uint64_t
deriveEntrySeed(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

void
FaultInjection::arm(const std::string &planJson)
{
    const JsonValue plan = JsonValue::parse(planJson);
    jsonRejectUnknownKeys(plan, {"seed", "faults"}, "fault plan");
    std::uint64_t seed = 0;
    jsonMaybe(plan, "seed",
              [&](const JsonValue &v) { seed = v.asUint(); });

    std::vector<Entry> entries;
    jsonMaybe(plan, "faults", [&](const JsonValue &faults) {
        for (const JsonValue &spec : faults.asArray()) {
            jsonRejectUnknownKeys(spec,
                                  {"site", "action", "errno", "ms",
                                   "keepFraction", "hit",
                                   "probability", "times", "tokens"},
                                  "fault plan entry");
            Entry entry;
            entry.site = spec.at("site").asString();
            entry.action =
                actionFromName(spec.at("action").asString());
            jsonMaybe(spec, "errno", [&](const JsonValue &v) {
                entry.err = v.isString()
                    ? faultErrnoFromName(v.asString())
                    : static_cast<int>(v.asInt());
            });
            jsonMaybe(spec, "ms", [&](const JsonValue &v) {
                entry.delayMs = v.asInt();
            });
            jsonMaybe(spec, "keepFraction", [&](const JsonValue &v) {
                entry.keepFraction = v.asDouble();
            });
            jsonMaybe(spec, "hit", [&](const JsonValue &v) {
                entry.hit = v.asUint();
            });
            jsonMaybe(spec, "probability", [&](const JsonValue &v) {
                entry.probability = v.asDouble();
            });
            jsonMaybe(spec, "times", [&](const JsonValue &v) {
                entry.times = v.asUint();
            });
            jsonMaybe(spec, "tokens", [&](const JsonValue &v) {
                entry.tokens = v.asString();
            });
            if (entry.site.empty())
                throw std::invalid_argument(
                    "fault plan: entry with empty site");
            if (entry.action == FaultAction::FailErrno
                && entry.err == 0)
                throw std::invalid_argument(
                    "fault plan: fail-errno entry for \"" + entry.site
                    + "\" needs an \"errno\"");
            if (entry.hit == 0 && entry.probability <= 0.0)
                throw std::invalid_argument(
                    "fault plan: entry for \"" + entry.site
                    + "\" needs a \"hit\" count or a positive "
                      "\"probability\"");
            if (entry.hit != 0 && entry.probability > 0.0)
                throw std::invalid_argument(
                    "fault plan: entry for \"" + entry.site
                    + "\" has both \"hit\" and \"probability\"");
            if (!entry.tokens.empty() && entry.times == 0)
                throw std::invalid_argument(
                    "fault plan: entry for \"" + entry.site
                    + "\" has \"tokens\" but no \"times\" budget");
            entry.index = entries.size();
            entry.rng = Rng(deriveEntrySeed(seed, entry.index));
            entries.push_back(std::move(entry));
        }
    });
    for (const Entry &entry : entries)
        if (!entry.tokens.empty())
            std::filesystem::create_directories(entry.tokens);

    std::lock_guard<std::mutex> lock(mutex_);
    seed_ = seed;
    entries_ = std::move(entries);
    counters_.clear();
    // An empty fault list still arms the registry: sites count their
    // evaluations, which is how the chaos harness discovers the site
    // coverage of a reference run.
    armedFlag().store(true, std::memory_order_relaxed);
}

void
FaultInjection::disarm()
{
    std::lock_guard<std::mutex> lock(mutex_);
    armedFlag().store(false, std::memory_order_relaxed);
    entries_.clear();
    counters_.clear();
    seed_ = 0;
}

FaultHit
FaultInjection::evaluate(const char *site)
{
    FaultHit hit;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        FaultSiteCounters &count = counters_[site];
        ++count.evaluations;
        for (Entry &entry : entries_) {
            if (entry.site != site)
                continue;
            if (entry.times != 0 && entry.fired >= entry.times)
                continue;
            bool fires = false;
            if (entry.hit != 0) {
                // From the Nth evaluation onward; "times" caps the
                // total (default 1 = exactly the Nth).
                fires = count.evaluations >= entry.hit;
            } else {
                // Advance the entry's private stream on *every*
                // evaluation of its site, so the schedule is a pure
                // function of (plan, hit index) — not of which earlier
                // entries happened to fire.
                fires = entry.rng.uniform() < entry.probability;
            }
            if (!fires || (!entry.tokens.empty() && !entry.claimToken()))
                continue;
            ++entry.fired;
            ++count.fires;
            hit.action = entry.action;
            hit.err = entry.err;
            hit.delayMs = entry.delayMs;
            hit.keepFraction = entry.keepFraction;
            break; // first matching entry wins this evaluation
        }
    }

    switch (hit.action) {
      case FaultAction::DelayMs:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(hit.delayMs));
        break;
      case FaultAction::Crash:
        std::fprintf(stderr,
                     "treevqa: fault injection: crash at site \"%s\"\n",
                     site);
        std::fflush(nullptr);
        ::raise(SIGKILL);
        std::_Exit(137); // unreachable; SIGKILL cannot be handled
      default:
        break;
    }
    return hit;
}

std::map<std::string, FaultSiteCounters>
FaultInjection::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

std::uint64_t
FaultInjection::totalFires() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto &[site, count] : counters_)
        total += count.fires;
    return total;
}

/**
 * Arm from TREEVQA_FAULT_PLAN at process start (static init), before
 * any fault point can be evaluated. The value is inline JSON when it
 * starts with '{', otherwise a path to a plan file. A malformed plan
 * kills the process: a chaos drill that silently ran fault-free would
 * report a vacuous pass.
 */
struct FaultInjectionEnvBootstrap
{
    FaultInjectionEnvBootstrap()
    {
        const char *value = std::getenv("TREEVQA_FAULT_PLAN");
        if (value == nullptr || *value == '\0')
            return;
        try {
            std::string plan = value;
            if (plan[0] != '{') {
                std::string text;
                if (!readTextFile(plan, text))
                    throw std::runtime_error(
                        "cannot read fault plan file " + plan);
                plan = std::move(text);
            }
            FaultInjection::instance().arm(plan);
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "treevqa: TREEVQA_FAULT_PLAN rejected: %s\n",
                         e.what());
            std::_Exit(2);
        }
    }
};

static FaultInjectionEnvBootstrap g_faultInjectionEnvBootstrap;

} // namespace treevqa
