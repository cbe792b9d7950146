/**
 * @file
 * SweepIndex: the parse-once, stat-cached view of a sweep directory's
 * job list.
 *
 * Daemon-mode workers re-read `sweep.json` every scan round so a live
 * fleet picks up appended scenarios — but re-parsing and re-expanding
 * the cross-product (and re-fingerprinting every job) each round is
 * O(N) work per scan, which at 10^5+ jobs dwarfs the work of scanning
 * itself. The index expands once, remembers the file's stat identity
 * (inode + size + mtime), and on refresh only re-expands when the
 * request document actually changed — the steady-state cost of "did
 * the sweep change?" is one stat. It also carries the
 * fingerprint → spec lookup the claim path and status view need, so
 * nobody re-derives fingerprints per round.
 */

#ifndef TREEVQA_SVC_SWEEP_INDEX_H
#define TREEVQA_SVC_SWEEP_INDEX_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "svc/scenario_spec.h"

namespace treevqa {

/** Fingerprint each spec in order, throwing std::invalid_argument on
 * a duplicate — two jobs with one fingerprint would fight over one
 * claim file and one record slot. Shared by the index and the
 * fixed-job-list worker path. */
std::vector<std::string>
fingerprintSpecs(const std::vector<ScenarioSpec> &specs);

/**
 * Seed `dir` with a sweep: create it, write `requestText` (which
 * expands to `specs`) as sweep.json atomically, then journal one
 * job.expanded per job under `origin` and flush, so the sweep's birth
 * is on the record before anything can claim its jobs. `origin` is
 * the journal identity ("run" for treevqa_run, "seed" for a --spec
 * worker or supervisor).
 */
void seedSweepDir(const std::string &dir, const std::string &requestText,
                  const std::vector<ScenarioSpec> &specs,
                  const std::string &origin);

class SweepIndex
{
  public:
    explicit SweepIndex(std::string sweepDir);

    /** Bring the expansion up to date: stat `sweep.json` and
     * re-expand only when its identity changed since the last
     * refresh. Throws std::runtime_error when the file is missing
     * and std::invalid_argument on duplicate fingerprints. */
    void refresh();

    const std::vector<ScenarioSpec> &specs() const { return specs_; }
    const std::vector<std::string> &fingerprints() const
    {
        return fingerprints_;
    }

    /** The spec carrying `fingerprint`, or nullptr. */
    const ScenarioSpec *
    byFingerprint(const std::string &fingerprint) const;

    /** Times the cross-product was actually (re-)expanded — the
     * cache-effectiveness counter (scans per drain >> expansions). */
    std::uint64_t expansions() const { return expansions_; }

  private:
    struct Signature
    {
        std::uint64_t inode = 0;
        std::uint64_t size = 0;
        std::int64_t mtimeSec = 0;
        std::int64_t mtimeNsec = 0;

        bool operator==(const Signature &other) const
        {
            return inode == other.inode && size == other.size
                && mtimeSec == other.mtimeSec
                && mtimeNsec == other.mtimeNsec;
        }
    };

    std::string sweepDir_;
    Signature signature_;
    bool loaded_ = false;
    std::vector<ScenarioSpec> specs_;
    std::vector<std::string> fingerprints_;
    std::map<std::string, std::size_t> byFingerprint_;
    std::uint64_t expansions_ = 0;
};

} // namespace treevqa

#endif // TREEVQA_SVC_SWEEP_INDEX_H
