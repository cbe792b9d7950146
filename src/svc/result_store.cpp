#include "svc/result_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/event_log.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"

namespace treevqa {

namespace {

/** The summary views walk records sorted by job name so their output
 * is independent of completion order. */
std::vector<const JobResult *>
sortedByName(const std::vector<JobResult> &results)
{
    std::vector<const JobResult *> sorted;
    sorted.reserve(results.size());
    for (const JobResult &r : results)
        sorted.push_back(&r);
    std::sort(sorted.begin(), sorted.end(),
              [](const JobResult *a, const JobResult *b) {
                  return a->spec.name < b->spec.name;
              });
    return sorted;
}

/** completed > failed > halted partial (JobResolution's rank). */
int
recordRank(bool completed, bool failed)
{
    return completed ? 2 : failed ? 1 : 0;
}

} // namespace

void
quarantineStoreLine(const std::string &storePath,
                    std::size_t lineNumber, const std::string &line,
                    const std::string &reason)
{
    if (!quarantineLine(storePath, lineNumber, line, reason,
                        quarantineDirFor(storePath),
                        Durability::Durable))
        return;
    JsonValue detail = JsonValue::object();
    detail.set("source",
               JsonValue(std::filesystem::path(storePath)
                             .filename()
                             .string()));
    detail.set("line",
               JsonValue(static_cast<std::int64_t>(lineNumber)));
    detail.set("reason", JsonValue(reason));
    EventLog::instance().emit(event_type::kStoreQuarantine, "",
                              std::move(detail));
}

StoredLineStatus
decodeStoredLine(const std::string &line, JobResult &record,
                 std::string *reason)
{
    static Counter &decoded =
        MetricsRegistry::instance().counter("store.lines_decoded");
    decoded.inc();
    const auto reject = [&](const std::string &why) {
        if (reason)
            *reason = why;
    };
    JsonValue json;
    try {
        json = JsonValue::parse(line);
    } catch (const std::exception &e) {
        // Most likely the torn final line of a killed writer; resume
        // re-runs that job from its checkpoint.
        reject(std::string("unparseable: ") + e.what());
        return StoredLineStatus::ParseFailure;
    }
    if (const char *why = checkAndStripCrc(json)) {
        reject(why);
        return StoredLineStatus::CrcMismatch;
    }
    try {
        record = jobResultFromJson(json);
    } catch (const std::exception &e) {
        reject(std::string("invalid record: ") + e.what());
        return StoredLineStatus::ParseFailure;
    }
    // A record whose stored fingerprint contradicts its own spec was
    // corrupted (or forged) in a way the CRC cannot see when the whole
    // line was rewritten consistently.
    if (record.fingerprint != scenarioFingerprint(record.spec)) {
        reject("fingerprint does not match spec");
        return StoredLineStatus::FingerprintMismatch;
    }
    return StoredLineStatus::Ok;
}

std::string
quarantineDirFor(const std::string &storePath)
{
    std::filesystem::path parent =
        std::filesystem::path(storePath).parent_path();
    // Worker shards live one level down (<sweep>/workers/<id>.jsonl);
    // their quarantine belongs with the sweep's, in <sweep>/quarantine
    // (sweep_dir.h layout).
    if (parent.filename() == "workers")
        parent = parent.parent_path();
    return (parent / "quarantine").string();
}

JsonValue
jobResultToJson(const JobResult &result)
{
    JsonValue out = JsonValue::object();
    out.set("name", JsonValue(result.spec.name));
    out.set("fingerprint", JsonValue(result.fingerprint));
    out.set("spec", scenarioToJson(result.spec));
    out.set("completed", JsonValue(result.completed));
    out.set("resumed", JsonValue(result.resumed));
    // Poison-job quarantine records only; absent on healthy records
    // so their serialization (and any byte-level diff against older
    // stores) is unchanged.
    if (result.failed) {
        out.set("failed", JsonValue(true));
        out.set("error", JsonValue(result.errorMessage));
        out.set("attempts",
                JsonValue(static_cast<std::int64_t>(result.attempts)));
        out.set("timedOut", JsonValue(result.timedOut));
    }
    out.set("backend", JsonValue(result.backend));
    out.set("iterations",
            JsonValue(static_cast<std::int64_t>(result.iterations)));
    out.set("shotsUsed", JsonValue(result.shotsUsed));
    out.set("bestLoss", jsonNumberOrNull(result.bestLoss));
    out.set("finalEnergy", jsonNumberOrNull(result.finalEnergy));
    out.set("groundEnergy", jsonNumberOrNull(result.groundEnergy));
    out.set("fidelity", jsonNumberOrNull(result.fidelity));
    out.set("trajectory", paramsToJson(result.trajectory));
    out.set("bestParams", paramsToJson(result.bestParams));
    out.set("wallSeconds", JsonValue(result.wallSeconds));
    return out;
}

JobResult
jobResultFromJson(const JsonValue &json)
{
    JobResult result;
    result.spec = scenarioFromJson(json.at("spec"));
    result.fingerprint = json.at("fingerprint").asString();
    result.completed = json.at("completed").asBool();
    result.resumed = json.at("resumed").asBool();
    jsonMaybe(json, "failed", [&](const JsonValue &v) {
        result.failed = v.asBool();
    });
    jsonMaybe(json, "error", [&](const JsonValue &v) {
        result.errorMessage = v.asString();
    });
    jsonMaybe(json, "attempts", [&](const JsonValue &v) {
        result.attempts = static_cast<int>(v.asInt());
    });
    jsonMaybe(json, "timedOut", [&](const JsonValue &v) {
        result.timedOut = v.asBool();
    });
    if (result.failed && result.attempts < 1)
        throw std::invalid_argument(
            "failed record must account for at least one attempt");
    result.backend = json.at("backend").asString();
    result.iterations = static_cast<int>(json.at("iterations").asInt());
    result.shotsUsed = json.at("shotsUsed").asUint();
    const auto number_or_nan = [&](const char *key) {
        const JsonValue &v = json.at(key);
        return v.isNull() ? std::numeric_limits<double>::quiet_NaN()
                          : v.asDouble();
    };
    result.bestLoss = number_or_nan("bestLoss");
    result.finalEnergy = number_or_nan("finalEnergy");
    result.groundEnergy = number_or_nan("groundEnergy");
    result.fidelity = number_or_nan("fidelity");
    result.trajectory = paramsFromJson(json.at("trajectory"));
    result.bestParams = paramsFromJson(json.at("bestParams"));
    result.wallSeconds = json.at("wallSeconds").asDouble();
    return result;
}

ResultStore::ResultStore(std::string path) : path_(std::move(path)) {}

std::string
jobResultToStoredLine(const JobResult &result)
{
    JsonValue record = jobResultToJson(result);
    stampCrc(record);
    return record.dump();
}

std::vector<JobResult>
ResultStore::load(StoreLoadStats *stats) const
{
    std::vector<JobResult> records;
    StoreLoadStats local;
    std::string text;
    if (!readTextFile(path_, text)) {
        if (stats)
            *stats = local;
        return records;
    }
    std::istringstream in(text);
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(in, line)) {
        ++line_number;
        if (line.empty())
            continue;
        JobResult record;
        std::string reason;
        switch (decodeStoredLine(line, record, &reason)) {
        case StoredLineStatus::Ok:
            ++local.records;
            records.push_back(std::move(record));
            continue;
        case StoredLineStatus::ParseFailure:
            ++local.parseFailures;
            break;
        case StoredLineStatus::CrcMismatch:
            ++local.crcMismatches;
            break;
        case StoredLineStatus::FingerprintMismatch:
            ++local.fingerprintMismatches;
            break;
        }
        quarantineStoreLine(path_, line_number, line, reason);
    }
    if (stats)
        *stats = local;
    return records;
}

void
ResultStore::append(const JobResult &result)
{
    appendLines(jobResultToStoredLine(result) + "\n");
}

StoreAppend
ResultStore::append(const std::vector<JobResult> &results)
{
    std::string lines;
    std::vector<std::size_t> ends;
    ends.reserve(results.size());
    for (const JobResult &result : results) {
        lines += jobResultToStoredLine(result) + "\n";
        ends.push_back(lines.size());
    }
    StoreAppend out;
    out.bytes = lines.size();
    if (lines.empty())
        return out;
    const std::size_t kept = appendLines(std::move(lines));
    out.landed = static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), kept) - ends.begin());
    return out;
}

std::size_t
ResultStore::appendLines(std::string lines)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (const FaultHit hit = FAULT_POINT("store.append")) {
        if (hit.action == FaultAction::FailErrno)
            throw std::runtime_error(
                "result store: cannot append to " + path_ + ": "
                + std::strerror(hit.err));
        if (hit.action == FaultAction::TornWrite)
            lines.resize(hit.tornPrefix(lines.size()));
    }
    appendTextDurable(path_, lines);
    return lines.size();
}

bool
JobResolution::fold(const JobResult &record)
{
    const int rank = recordRank(record.completed, record.failed);
    const int held = recordRank(completed, failed);
    if (rank < held)
        return false;
    const bool both_failed = rank == 1 && held == 1;
    attempts = both_failed ? attempts + record.attempts : record.attempts;
    timedOut = (both_failed && timedOut) || record.timedOut;
    completed = record.completed;
    failed = record.failed;
    iterations = record.iterations;
    finalEnergy = record.finalEnergy;
    shotsUsed = record.shotsUsed;
    errorMessage = record.errorMessage;
    return true;
}

std::vector<JobResult>
dedupeByFingerprint(std::vector<JobResult> records,
                    bool warnOnDuplicates)
{
    // Per fingerprint: the kept record's index (first-seen order) and
    // the fold of every record seen so far.
    std::vector<JobResult> kept;
    std::map<std::string, std::pair<std::size_t, JobResolution>>
        by_fingerprint;
    std::set<std::string> warned;
    for (JobResult &record : records) {
        const auto [it, inserted] = by_fingerprint.try_emplace(
            record.fingerprint, kept.size(), JobResolution{});
        if (inserted)
            kept.emplace_back();
        else if (warnOnDuplicates
                 && warned.insert(record.fingerprint).second)
            std::fprintf(stderr,
                         "treevqa: duplicate records for job \"%s\" "
                         "(fingerprint %s); keeping the newest "
                         "complete one\n",
                         record.spec.name.c_str(),
                         record.fingerprint.c_str());
        auto &[index, resolution] = it->second;
        JobResult &held = kept[index];
        if (resolution.fold(record))
            held = std::move(record);
        held.attempts = resolution.attempts;
        held.timedOut = resolution.timedOut;
    }
    return kept;
}

JsonValue
sweepSummaryJson(const std::vector<JobResult> &results)
{
    const std::vector<const JobResult *> sorted = sortedByName(results);
    JsonValue out = JsonValue::object();
    std::uint64_t total_shots = 0;
    std::int64_t total_iterations = 0;
    std::size_t completed = 0;
    JsonValue jobs = JsonValue::array();
    for (const JobResult *r : sorted) {
        total_shots += r->shotsUsed;
        total_iterations += r->iterations;
        completed += r->completed ? 1 : 0;
        JsonValue entry = JsonValue::object();
        entry.set("name", JsonValue(r->spec.name));
        entry.set("fingerprint", JsonValue(r->fingerprint));
        entry.set("backend", JsonValue(r->backend));
        entry.set("completed", JsonValue(r->completed));
        entry.set("iterations",
                  JsonValue(static_cast<std::int64_t>(r->iterations)));
        entry.set("shotsUsed", JsonValue(r->shotsUsed));
        entry.set("bestLoss", jsonNumberOrNull(r->bestLoss));
        entry.set("finalEnergy", jsonNumberOrNull(r->finalEnergy));
        entry.set("fidelity", jsonNumberOrNull(r->fidelity));
        jobs.push_back(std::move(entry));
    }
    out.set("jobs", JsonValue(static_cast<std::uint64_t>(results.size())));
    out.set("completedJobs",
            JsonValue(static_cast<std::uint64_t>(completed)));
    out.set("totalIterations", JsonValue(total_iterations));
    out.set("totalShots", JsonValue(total_shots));
    out.set("records", std::move(jobs));
    return out;
}

std::string
sweepSummaryText(const std::vector<JobResult> &results)
{
    const std::vector<const JobResult *> sorted = sortedByName(results);
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line), "%-32s %-12s %6s %12s %14s %9s\n",
                  "job", "backend", "iters", "shots", "energy",
                  "wall(s)");
    out += line;
    double total_wall = 0.0;
    std::uint64_t total_shots = 0;
    for (const JobResult *r : sorted) {
        total_wall += r->wallSeconds;
        total_shots += r->shotsUsed;
        std::snprintf(line, sizeof(line),
                      "%-32s %-12s %6d %12llu %14.8f %9.3f%s\n",
                      r->spec.name.c_str(), r->backend.c_str(),
                      r->iterations,
                      static_cast<unsigned long long>(r->shotsUsed),
                      r->finalEnergy, r->wallSeconds,
                      r->completed ? "" : "  [halted]");
        out += line;
    }
    std::snprintf(line, sizeof(line),
                  "%zu jobs, %.3e shots, %.3f s total wall\n",
                  results.size(), static_cast<double>(total_shots),
                  total_wall);
    out += line;
    return out;
}

} // namespace treevqa
