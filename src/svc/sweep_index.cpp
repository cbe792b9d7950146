#include "svc/sweep_index.h"

#include <set>
#include <stdexcept>

#include <sys/stat.h>

#include "common/event_log.h"
#include "common/file_util.h"
#include "svc/sweep_dir.h"

namespace treevqa {

std::vector<std::string>
fingerprintSpecs(const std::vector<ScenarioSpec> &specs)
{
    std::vector<std::string> fingerprints;
    fingerprints.reserve(specs.size());
    std::set<std::string> distinct;
    for (const ScenarioSpec &spec : specs) {
        std::string fp = scenarioFingerprint(spec);
        if (!distinct.insert(fp).second)
            throw std::invalid_argument(
                "worker: sweep contains duplicate spec \"" + spec.name
                + "\" (fingerprint " + fp
                + "); de-duplicate the request");
        fingerprints.push_back(std::move(fp));
    }
    return fingerprints;
}

void
seedSweepDir(const std::string &dir, const std::string &requestText,
             const std::vector<ScenarioSpec> &specs,
             const std::string &origin)
{
    std::filesystem::create_directories(dir);
    writeTextFileAtomic(sweepSpecPath(dir), requestText);
    EventLog &log = EventLog::instance();
    log.open(dir, origin);
    for (const ScenarioSpec &spec : specs) {
        JsonValue detail = JsonValue::object();
        detail.set("name", JsonValue(spec.name));
        log.emit(event_type::kJobExpanded, scenarioFingerprint(spec),
                 std::move(detail));
    }
    log.flush();
}

SweepIndex::SweepIndex(std::string sweepDir)
    : sweepDir_(std::move(sweepDir))
{
}

void
SweepIndex::refresh()
{
    const std::string path = sweepSpecPath(sweepDir_);
    const auto missing = [&] {
        return std::runtime_error(
            "worker: cannot read " + path
            + " (seed the sweep directory with treevqa_run --out or "
              "treevqa_worker --spec)");
    };
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        throw missing();
    const Signature sig{
        static_cast<std::uint64_t>(st.st_ino),
        static_cast<std::uint64_t>(st.st_size),
        static_cast<std::int64_t>(st.st_mtim.tv_sec),
        static_cast<std::int64_t>(st.st_mtim.tv_nsec)};
    if (loaded_ && sig == signature_)
        return;

    std::string text;
    if (!readTextFile(path, text))
        throw missing();
    std::vector<ScenarioSpec> specs =
        expandScenarios(JsonValue::parse(text));
    std::vector<std::string> fingerprints = fingerprintSpecs(specs);
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < fingerprints.size(); ++i)
        index.emplace(fingerprints[i], i);

    specs_ = std::move(specs);
    fingerprints_ = std::move(fingerprints);
    byFingerprint_ = std::move(index);
    // The document may have been atomically replaced between our stat
    // and read; the remembered signature is the *stat's*, so a stale
    // read is caught and re-expanded on the next refresh.
    signature_ = sig;
    loaded_ = true;
    ++expansions_;
}

const ScenarioSpec *
SweepIndex::byFingerprint(const std::string &fingerprint) const
{
    const auto it = byFingerprint_.find(fingerprint);
    return it == byFingerprint_.end() ? nullptr : &specs_[it->second];
}

} // namespace treevqa
