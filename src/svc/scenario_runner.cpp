#include "svc/scenario_runner.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <set>
#include <stdexcept>

#include "common/event_log.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/metrics.h"
#include "core/vqa_cluster.h"
#include "svc/sweep_dir.h"

namespace treevqa {

namespace {

constexpr std::int64_t kCheckpointVersion = 2;

/** Registry instruments for the per-job phases, looked up once. */
struct RunnerMetrics
{
    Histogram &compileNs;
    Histogram &prepNs;
    Histogram &stepNs;
    Histogram &checkpointNs;
    Counter &jobs;
    Counter &checkpointsWritten;
};

RunnerMetrics &
runnerMetrics()
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    static RunnerMetrics m{
        reg.histogram("runner.compile_ns"),
        reg.histogram("runner.prep_ns"),
        reg.histogram("runner.step_ns"),
        reg.histogram("runner.checkpoint_write_ns"),
        reg.counter("runner.jobs"),
        reg.counter("runner.checkpoints_written")};
    return m;
}

/** The runner's own loop state beside the cluster's and the shot
 * ledger's: what a checkpoint stores next to VqaCluster::saveState(). */
struct RunState
{
    std::vector<double> trajectory;
    double bestLoss = std::numeric_limits<double>::infinity();
    std::vector<double> bestParams;
};

/** The last-good previous checkpoint generation kept beside the
 * current file (rotated on every write, consumed by restore when the
 * current file fails validation). */
std::string
checkpointPrevPath(const std::string &path)
{
    return path + ".prev";
}

/**
 * Durable checkpoint write: the CRC32 of the compact serialization is
 * stamped in as a trailing "crc" member (stampCrc; restore rejects a
 * file whose crc is missing or wrong), the previous
 * checkpoint is rotated to `<path>.prev` as the last-good fallback,
 * and the new file lands via atomic tmp + rename, so a kill at any
 * instant leaves at least one valid generation on disk. Fault site
 * "checkpoint.write": fail-errno throws (the worker retry budget's
 * food), torn-write truncates the body so a *renamed-whole but
 * internally corrupt* checkpoint lands — the case the CRC exists for
 * — and crash kills the process right before the write (the
 * crash-at-checkpoint-index drill).
 */
void
writeCheckpoint(const std::string &path, const JsonValue &checkpoint)
{
    TRACE_SPAN_TIMED("runner.checkpoint_write",
                     runnerMetrics().checkpointNs);
    JsonValue stamped = checkpoint;
    stampCrc(stamped);
    std::string body = stamped.dump(2) + "\n";
    if (const FaultHit hit = FAULT_POINT("checkpoint.write")) {
        if (hit.action == FaultAction::FailErrno)
            throw std::runtime_error("checkpoint write failed: " + path
                                     + ": "
                                     + std::strerror(hit.err));
        if (hit.action == FaultAction::TornWrite)
            body.resize(hit.tornPrefix(body.size()));
    }
    // Rotate the current (validated-on-write, so presumed good)
    // generation out of harm's way before replacing it; a failed
    // rotate (first write: no current file) is fine.
    std::rename(path.c_str(), checkpointPrevPath(path).c_str());
    writeTextFileAtomic(path, body);
    runnerMetrics().checkpointsWritten.inc();
}

/**
 * Hand `use` each checkpoint generation of `path` in restore order,
 * the current file and then the rotated last-good `.prev`, parsed with
 * its CRC checked and stripped and its format version checked, until
 * `use` returns without throwing. An absent file is skipped silently,
 * a failing one with a warning when `warn`. Returns the accepted file,
 * or "" when there was none.
 */
std::string
useNewestGoodCheckpoint(const std::string &path, bool warn,
                        const std::function<void(const JsonValue &)> &use)
{
    for (const std::string &file : {path, checkpointPrevPath(path)}) {
        std::string text;
        if (!readTextFile(file, text))
            continue;
        try {
            JsonValue checkpoint = JsonValue::parse(text);
            if (const char *why = checkAndStripCrc(checkpoint))
                throw std::runtime_error(why);
            if (checkpoint.at("version").asInt() != kCheckpointVersion)
                throw std::runtime_error(
                    "unsupported checkpoint version");
            use(checkpoint);
            return file;
        } catch (const std::exception &e) {
            if (warn)
                std::fprintf(stderr,
                             "treevqa: ignoring checkpoint %s (%s)\n",
                             file.c_str(), e.what());
        }
    }
    return "";
}

/**
 * Restore loop state and cluster from the newest good checkpoint
 * generation that belongs to `fingerprint` and loads; the cluster's
 * loadState is all-or-nothing, so a skipped generation leaves it
 * fresh. False = fresh start.
 */
bool
tryRestore(const std::string &path, const std::string &fingerprint,
           RunState &state, VqaCluster &cluster, ShotLedger &ledger)
{
    const std::string used = useNewestGoodCheckpoint(
        path, true, [&](const JsonValue &checkpoint) {
            if (checkpoint.at("fingerprint").asString() != fingerprint)
                throw std::runtime_error(
                    "checkpoint belongs to a different spec");
            const std::uint64_t shots = checkpoint.at("shots").asUint();
            RunState restored;
            restored.trajectory =
                paramsFromJson(checkpoint.at("trajectory"));
            const JsonValue &best = checkpoint.at("bestLoss");
            restored.bestLoss = best.isNull()
                ? std::numeric_limits<double>::infinity()
                : best.asDouble();
            restored.bestParams =
                paramsFromJson(checkpoint.at("bestParams"));
            cluster.loadState(checkpoint.at("cluster"));
            state = std::move(restored);
            ledger.charge(shots);
        });
    if (!used.empty() && used != path)
        std::fprintf(stderr, "treevqa: restored last-good checkpoint %s\n",
                     used.c_str());
    return !used.empty();
}

} // namespace

JobResult
runScenario(const ScenarioSpec &spec, const ScenarioRunOptions &options)
{
    const auto t0 = std::chrono::steady_clock::now();

    JobResult result;
    result.spec = spec;
    result.fingerprint = scenarioFingerprint(spec);
    runnerMetrics().jobs.inc();

    TraceSpan compile_span("runner.compile",
                           &runnerMetrics().compileNs);
    const VqaTask task = buildScenarioTask(spec);
    const Ansatz ansatz =
        buildScenarioAnsatz(spec, task).withInitialBits(task.initialBits);
    // A scenario job is a tree of one node: a single-task cluster,
    // stepped exactly as a tree round or a baseline task steps it (a
    // lone task never splits, so split requests are ignored). Its
    // optimizer and evaluation-noise stream derive from the spec seed
    // alone, so results are independent of scheduling.
    VqaCluster cluster(
        0, 1, -1, {0}, {task.hamiltonian}, ansatz, spec.engine,
        ClusterConfig{}, makeScenarioOptimizer(spec),
        std::vector<double>(static_cast<std::size_t>(ansatz.numParams()),
                            0.0),
        Rng(deriveScenarioSeed(spec.seed, 0xe7a1)));
    result.backend = cluster.objective().backendName();
    result.groundEnergy = task.groundEnergy;
    compile_span.end();

    // The fingerprint covers checkpointInterval, so a job that never
    // writes a checkpoint never has one to restore either.
    const bool checkpoints_enabled = !options.checkpointPath.empty()
        && spec.checkpointInterval > 0;
    RunState state;
    ShotLedger ledger;
    TraceSpan prep_span("runner.prep", &runnerMetrics().prepNs);
    if (checkpoints_enabled
        && tryRestore(options.checkpointPath, result.fingerprint, state,
                      cluster, ledger)) {
        result.resumed = true;
        JsonValue detail = JsonValue::object();
        detail.set("iteration",
                   JsonValue(static_cast<std::int64_t>(
                       cluster.iterations())));
        EventLog::instance().emit(event_type::kJobResumed,
                                  result.fingerprint,
                                  std::move(detail));
        EventLog::instance().flush();
    }
    prep_span.end();

    const auto checkpoint = [&](bool graceful) {
        JsonValue out = JsonValue::object();
        out.set("version", JsonValue(kCheckpointVersion));
        out.set("fingerprint", JsonValue(result.fingerprint));
        out.set("iteration", JsonValue(static_cast<std::int64_t>(
                                 cluster.iterations())));
        out.set("shots", JsonValue(ledger.total()));
        out.set("trajectory", paramsToJson(state.trajectory));
        out.set("bestLoss", jsonNumberOrNull(state.bestLoss));
        out.set("bestParams", paramsToJson(state.bestParams));
        out.set("cluster", cluster.saveState());
        writeCheckpoint(options.checkpointPath, out);
        // Flushed before checkpoint.written: the kill-and-resume
        // drills crash the process at that site, and the journal must
        // already show the checkpoint the next claimant will resume
        // from.
        JsonValue detail = JsonValue::object();
        detail.set("iteration", JsonValue(static_cast<std::int64_t>(
                                    cluster.iterations())));
        if (graceful)
            detail.set("graceful", JsonValue(true));
        EventLog::instance().emit(event_type::kJobCheckpointed,
                                  result.fingerprint, std::move(detail));
        EventLog::instance().flush();
    };

    if (options.progressCounter)
        options.progressCounter->store(cluster.iterations());

    // Algorithm 1's budget rule, as in tree rounds and the baseline:
    // step while the spent shots are below the budget. The check reads
    // only checkpointed state, so a resumed job stops where an
    // uninterrupted one does.
    bool halted = false;
    while (cluster.iterations() < spec.maxIterations
           && (spec.shotBudget == 0 || ledger.total() < spec.shotBudget)) {
        // Injectable wedge (delay-ms): the optimizer step stalls while
        // the heartbeat thread keeps renewing the lease with an
        // unchanged progress stamp — exactly the signature the
        // hung-job watchdog kills on.
        if (const FaultHit hit = FAULT_POINT("worker.hang"))
            (void)hit; // delay already served inside evaluate()
        TraceSpan step_span("runner.step", &runnerMetrics().stepNs);
        cluster.step(ledger);
        step_span.end();
        const int iteration = cluster.iterations();
        if (options.progressCounter)
            options.progressCounter->store(iteration);
        const double loss = cluster.lastLoss();
        state.trajectory.push_back(loss);
        if (loss < state.bestLoss) {
            state.bestLoss = loss;
            state.bestParams = cluster.params();
        }

        if (checkpoints_enabled
            && iteration % spec.checkpointInterval == 0
            && iteration < spec.maxIterations) {
            checkpoint(false);
            if (const FaultHit hit = FAULT_POINT("checkpoint.written"))
                (void)hit; // crash never returns; a delay is served
        }
        // Graceful stop (SIGTERM cascade): seal a checkpoint at this
        // exact iteration so the next claimant resumes here instead of
        // replaying from the last interval-aligned write, then report
        // the job as interrupted (completed=false, nothing recorded).
        if (options.shouldStop && iteration < spec.maxIterations
            && options.shouldStop()) {
            if (checkpoints_enabled)
                checkpoint(true);
            halted = true;
            break;
        }
    }

    result.iterations = cluster.iterations();
    result.shotsUsed = ledger.total();
    result.trajectory = state.trajectory;
    result.bestLoss = state.trajectory.empty()
        ? std::numeric_limits<double>::quiet_NaN()
        : state.bestLoss;
    result.bestParams = state.bestParams;

    if (halted) {
        // Sealed by a graceful stop: leave the checkpoint on disk,
        // report the partial state without finalizing.
        result.completed = false;
        result.wallSeconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now()
                                          - t0)
                .count();
        return result;
    }

    const std::vector<double> &final_params =
        state.bestParams.empty() ? cluster.params() : state.bestParams;
    result.finalEnergy =
        cluster.objective().exactTaskEnergy(0, final_params);
    if (task.hasGroundEnergy())
        result.fidelity =
            energyFidelity(result.finalEnergy, task.groundEnergy);
    result.completed = true;
    // The checkpoint stays until the caller's record is durable
    // (retireCheckpoints): a kill before that resumes from it.

    result.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    return result;
}

void
retireCheckpoints(const std::string &sweepDir,
                  const std::vector<JobResult> &records)
{
    std::set<std::string> retired;
    for (const JobResult &record : records)
        if (record.completed && record.spec.checkpointInterval > 0)
            retired.insert(record.fingerprint);
    if (retired.empty())
        return;
    // Every file of a job starts with its fingerprint and a '.':
    // `<fp>.json`, `<fp>.json.prev`, `<fp>.json.tmp.<pid>.<n>`.
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(
             sweepCheckpointDir(sweepDir), ec)) {
        const std::string name = entry.path().filename().string();
        if (retired.count(name.substr(0, name.find('.'))) != 0)
            std::remove(entry.path().c_str());
    }
}

std::optional<CheckpointPeek>
peekCheckpoint(const std::string &path)
{
    std::optional<CheckpointPeek> peek;
    useNewestGoodCheckpoint(path, false, [&](const JsonValue &checkpoint) {
        peek = CheckpointPeek{
            checkpoint.at("fingerprint").asString(),
            static_cast<int>(checkpoint.at("iteration").asInt())};
    });
    return peek;
}

} // namespace treevqa
