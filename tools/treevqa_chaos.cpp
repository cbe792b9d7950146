/**
 * @file
 * treevqa_chaos — the drill runner: every end-to-end contract of the
 * sweep stack, checked by real processes under real kills.
 *
 * The contract: under any fault schedule (failed syscalls, torn
 * writes, heartbeat loss, hung jobs, SIGKILL at any checkpoint), a
 * sweep still drains to a `summary.json` byte-identical to the
 * single-process reference — jobs are pure functions of their specs,
 * and every recovery path (checkpoint resume, lease reaping, record
 * re-execution, corrupt-line quarantine) converges on the same
 * records.
 *
 *   treevqa_chaos --seed S [--out DIR] [--jobs N] [--only SELECTION]
 *                 [--print-matrix]
 *
 *   --seed S         base seed: the same seed gives the identical fault
 *                    schedule (plan seeds, probability streams)
 *   --out DIR        scratch root (default ./chaos_scratch); wiped
 *   --jobs N         size of the chaos drills' sweep (default 6)
 *   --only SELECTION the drills with this label (chaos, smoke, scale)
 *                    or this name
 *   --print-matrix   print the drill matrix (index, name, plan), exit
 *
 * A drill is one value with four parts: a sweep spec, a fault plan, a
 * drain mode and its assertions. Every drill runs the same steps:
 *
 *  1. the drain, its processes armed through TREEVQA_FAULT_PLAN (this
 *     process stays disarmed). Modes: `worker`, one `--drill-child`
 *     worker that prints its per-site fire counts on the way out;
 *     `workers`, two treevqa_worker processes, only the first armed,
 *     the second started once the first holds a claim; `fleet`,
 *     treevqa_supervisor over treevqa_worker children, all armed (a
 *     `tokens` plan entry shares one kill budget across restarted
 *     children); `scheduler`, `treevqa_run SPEC --out DIR`;
 *  2. the drill's own assertions on what the drain left;
 *  3. the disarmed recovery run — one treevqa_worker, or treevqa_run
 *     again for the scheduler — which drains whatever the faults left;
 *  4. the checks every drill shares: the recovery exits 0, no
 *     checkpoint file of a completed job is left (staging copies
 *     included), `--status` counts every job done, summary.json and the completed energies
 *     equal the single-process reference (`treevqa_run SPEC --jobs
 *     1`, once per distinct sweep), every planned site fired (judged
 *     from the armed process's fire report, or its SIGKILL death for a
 *     crash entry; fleet drills prove it through the supervisor's
 *     report), and every observability dump (events/, metrics/)
 *     parses: a fault may lose dumps, never corrupt one.
 *
 * Labels: `chaos` is the fault site/action matrix over a tiny sweep,
 * `smoke` the end-to-end CLI cycles, `scale` the 10^4-job fleet
 * drain. Drills run concurrently, at most kProcessSlots processes at
 * once, and a drill runs the same alone or in the full matrix (its
 * plan seed keys off its matrix index). Each run first checks that a
 * re-executed `--print-matrix` prints the matrix this process
 * renders. Results land in `<out>/chaos_report.json`; the exit status
 * is 0 iff every selected drill passed.
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/event_log.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/json.h"
#include "dist/worker_daemon.h"
#include "svc/group_commit.h"
#include "svc/scenario_spec.h"
#include "svc/sweep_dir.h"

#include "cli_util.h"

extern char **environ;

using namespace treevqa;

namespace {

namespace fs = std::filesystem;
using Args = std::vector<std::string>;

/** Most child processes the drills of one run keep alive at once. */
constexpr int kProcessSlots = 8;

/** Wall-clock budget of one drill process; past it its process group
 * is SIGKILLed (the 10^4-job drain takes ~10 s on 4 vCPUs). */
constexpr std::chrono::seconds kProcessDeadline{300};

/** Prefix of the drill child's fire-count report line. */
constexpr const char *kFiresPrefix = "drill child fires: ";

// ------------------------------------------------------------ processes

/** One child process. Its stdout and stderr append to `out` and
 * `err`; `plan` (TREEVQA_FAULT_PLAN) empty = disarmed. */
struct Launch
{
    Args argv;
    std::string plan;
    bool trace = false; // TREEVQA_TRACE=1
    std::string out, err;
};

/** Start `launch` in a process group of its own, so a deadline kill
 * takes a supervisor's children with it. */
pid_t
start(const Launch &launch)
{
    Args env;
    for (char **e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "TREEVQA_FAULT_PLAN=", 19) != 0
            && std::strncmp(*e, "TREEVQA_TRACE=", 14) != 0)
            env.push_back(*e);
    if (!launch.plan.empty())
        env.push_back("TREEVQA_FAULT_PLAN=" + launch.plan);
    if (launch.trace)
        env.push_back("TREEVQA_TRACE=1");
    Args argv = launch.argv;
    const auto pointers = [](Args &strings) {
        std::vector<char *> out;
        for (std::string &s : strings)
            out.push_back(s.data());
        out.push_back(nullptr);
        return out;
    };
    std::vector<char *> argv_ptrs = pointers(argv), env_ptrs = pointers(env);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    for (const auto &[fd, path] : {std::pair{1, &launch.out}, {2, &launch.err}})
        posix_spawn_file_actions_addopen(&actions, fd, path->c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawnattr_t attr;
    posix_spawnattr_init(&attr);
    posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
    posix_spawnattr_setpgroup(&attr, 0);
    pid_t pid = -1;
    const int rc = posix_spawnp(&pid, argv_ptrs[0], &actions, &attr,
                                argv_ptrs.data(), env_ptrs.data());
    posix_spawn_file_actions_destroy(&actions);
    posix_spawnattr_destroy(&attr);
    if (rc != 0)
        throw std::runtime_error("cannot start " + argv[0] + ": "
                                 + std::strerror(rc));
    return pid;
}

/** Wait for `pid`: its exit code, or 128 + the signal that ended it. */
int
finish(pid_t pid)
{
    const auto deadline = std::chrono::steady_clock::now() + kProcessDeadline;
    int status = 0;
    while (::waitpid(pid, &status, WNOHANG) == 0) {
        if (std::chrono::steady_clock::now() > deadline) {
            ::kill(-pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return WIFSIGNALED(status) ? 128 + WTERMSIG(status) : WEXITSTATUS(status);
}

std::string
readOrEmpty(const std::string &path)
{
    std::string text;
    readTextFile(path, text);
    return text;
}

Args
lines(const std::string &text)
{
    Args out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        out.push_back(line);
    return out;
}

bool
startsWith(const std::string &text, const std::string &prefix)
{
    return text.rfind(prefix, 0) == 0;
}

/** Every parseable line of a JSONL store (torn lines are skipped). */
std::vector<JsonValue>
storeRecords(const std::string &path)
{
    std::vector<JsonValue> records;
    for (const std::string &line : lines(readOrEmpty(path))) {
        try {
            records.push_back(JsonValue::parse(line));
        } catch (const std::exception &) {
        }
    }
    return records;
}

/** Job name -> final energy of every completed record in a store. */
std::map<std::string, double>
completedEnergies(const std::string &storePath)
{
    std::map<std::string, double> energies;
    for (const JsonValue &record : storeRecords(storePath))
        if (const JsonValue *done = record.find("completed");
            done && done->asBool())
            energies[record.at("name").asString()] =
                record.at("finalEnergy").asDouble();
    return energies;
}

// --------------------------------------------------------------- drills

/** `count` values first/scale, (first+step)/scale, ... as JSON. */
std::string
steps(int first, int step, int count, double scale)
{
    JsonValue values = JsonValue::array();
    for (int k = 0; k < count; ++k)
        values.push_back(JsonValue((first + step * k) / scale));
    return values.dump();
}

/** The sweep a drill drains: a `size`-site TFIM on a 1-layer HEA with
 * SPSA, one job per point of `axes` (the "sweep" member). */
JsonValue
tfimSweep(const std::string &name, int size, int iterations,
          int checkpointInterval, int shots, const std::string &axes)
{
    JsonValue doc = JsonValue::parse(
        R"({"problem": "tfim", "ansatz": "hea", "layers": 1, "seed": 7,
            "optimizer": {"name": "spsa", "a": 0.2}})");
    JsonValue engine = JsonValue::parse(R"({"backend": "statevector"})");
    engine.set("shotsPerTerm", JsonValue(shots));
    doc.set("name", JsonValue(name));
    doc.set("size", JsonValue(size));
    doc.set("engine", std::move(engine));
    doc.set("maxIterations", JsonValue(iterations));
    doc.set("checkpointInterval", JsonValue(checkpointInterval));
    doc.set("sweep", JsonValue::parse(axes));
    return doc;
}

/** A sweep over `jobs` transverse fields 0.5, 0.7, ... (1024 shots
 * per term on 6 sites, 256 on the chaos drills' 4). */
JsonValue
fieldSweep(const std::string &name, int size, int iterations,
           int checkpointInterval, int jobs)
{
    return tfimSweep(name, size, iterations, checkpointInterval,
                     size > 4 ? 1024 : 256,
                     "{\"field\": " + steps(5, 2, jobs, 10.0) + "}");
}

enum class Drain { Worker, Workers, Fleet, Scheduler };

struct Run;

struct Drill
{
    std::string name;
    std::string label; // chaos | smoke | scale
    JsonValue sweep;
    /** The plan's "faults" array as JSON text; "[]" = disarmed. */
    std::string faults = "[]";
    Drain drain = Drain::Worker;
    /** Mode arguments: treevqa_run's for a scheduler, each worker's
     * for two workers, the supervisor's (then `--` and the workers')
     * for a fleet. */
    Args args;
    int workers = 3; // fleet size
    /** The recovery's --max-job-attempts: above the drill's budget,
     * so poisoned jobs re-run fault-free. */
    int recoveryMaxAttempts = 3;
    bool trace = false; // TREEVQA_TRACE=1 in the drain
    /** The drill's assertions after the drain, and after recovery. */
    std::function<void(Run &)> check, afterRecovery;

    int processes() const
    {
        return drain == Drain::Fleet ? workers + 1
            : drain == Drain::Workers ? 2
                                      : 1;
    }
};

/** Where a drill's `tokens` plan entries keep their kill budget. */
std::string
crashTokens(const std::string &outRoot, const std::string &drill)
{
    return (fs::path(outRoot) / drill / "crash-tokens").string();
}

/** SplitMix64 step: per-drill plan seed from the base seed, so one
 * --seed pins every probability stream in the matrix. */
std::uint64_t
drillPlanSeed(std::uint64_t base, std::size_t index)
{
    std::uint64_t z =
        base + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(index) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
drillPlanJson(const std::string &faults, std::uint64_t base, std::size_t index)
{
    return "{\"seed\": " + std::to_string(drillPlanSeed(base, index))
        + ", \"faults\": " + faults + "}";
}

/** One drill's run: its paths, what its drain did, and the problems
 * its assertions found. */
struct Run
{
    std::string root; // <out>/<drill>: spec, plan, logs, view outputs
    std::string dir;  // <root>/sweep: the sweep directory
    std::string spec;
    std::size_t jobs = 0;
    /** Process id, exit status and output of each drain process. */
    std::vector<pid_t> pids;
    std::vector<int> status;
    Args logs;
    std::string problems;
    int views = 0;

    void expect(bool ok, const std::string &what)
    {
        if (!ok)
            problems += (problems.empty() ? "" : "; ") + what;
    }

    /** treevqa_run with `args`: its exit status and stdout. */
    std::pair<int, std::string> view(Args args)
    {
        const std::string out = root + "/view-" + std::to_string(++views);
        args.insert(args.begin(), siblingBinary("treevqa_run"));
        const int rc =
            finish(start({args, "", false, out, root + "/views.log"}));
        return {rc, readOrEmpty(out)};
    }

    /** A view that must exit 0: its stdout. */
    std::string viewOk(const Args &args)
    {
        auto [rc, text] = view(args);
        expect(rc == 0, "treevqa_run " + args[0] + " exited "
                            + std::to_string(rc));
        return text;
    }

    /** The integer after the last " key=" in drain process `p`'s
     * output; -1 when absent. */
    long long reported(std::size_t p, const std::string &key) const
    {
        const std::size_t at = logs[p].rfind(" " + key + "=");
        return at == std::string::npos
            ? -1
            : std::atoll(logs[p].c_str() + at + key.size() + 2);
    }

    bool printed(std::size_t p, const std::string &text) const
    {
        return logs[p].find(text) != std::string::npos;
    }

    void expectAtLeast(std::size_t p, const std::string &key, long long min)
    {
        const long long value = reported(p, key);
        expect(value >= min, key + "=" + std::to_string(value)
                                 + ", expected >= " + std::to_string(min));
    }

    /** The supervisor reported drained (or not) and `retired` slots. */
    void expectFleet(bool drained, long long retired)
    {
        expect(printed(0, drained ? "drained=yes merged=yes" : "drained=no")
                   && status[0] == (drained ? 0 : 1),
               "supervisor exited " + std::to_string(status[0]) + ", expected "
                   + (drained ? "drained=yes merged=yes" : "drained=no"));
        expect(reported(0, "retired") == retired,
               "retired=" + std::to_string(reported(0, "retired")));
    }

    /** The supervisor's beats put a supervisor row into --health. */
    void expectSupervisorRow()
    {
        const JsonValue health =
            JsonValue::parse(viewOk({"--health", "--out", dir}));
        const auto &rows = health.at("workers").asArray();
        expect(std::any_of(rows.begin(), rows.end(),
                           [](const JsonValue &row) {
                               return row.at("role").asString()
                                   == "supervisor";
                           }),
               "no supervisor row in --health");
    }

    /** --validate accepts the sweep and counts its jobs. */
    void expectValid()
    {
        const Args out = lines(viewOk({spec, "--validate"}));
        expect(!out.empty()
                   && out.back()
                       == std::to_string(jobs) + " job(s), all valid",
               "--validate did not count every job valid");
    }
};

/** One `--events` row: "<wall>.<ctr>@<origin> <type> <worker> <job>
 * <detail>". */
struct EventRow
{
    std::string key, origin, type, worker, job;
    JsonValue detail;
};

std::vector<EventRow>
eventRows(const std::string &text)
{
    std::vector<EventRow> rows;
    for (const std::string &line : lines(text)) {
        std::istringstream in(line);
        EventRow row;
        std::string detail;
        in >> row.key >> row.type >> row.worker >> row.job;
        std::getline(in >> std::ws, detail);
        row.origin = row.key.substr(row.key.find('@') + 1);
        try {
            row.detail = JsonValue::parse(detail);
        } catch (const std::exception &) {
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

/** The fingerprints of the canonical store's parseable records. */
std::set<std::string>
recordedJobs(const Run &run)
{
    std::set<std::string> fingerprints;
    for (const JsonValue &record : storeRecords(sweepStorePath(run.dir)))
        fingerprints.insert(record.at("fingerprint").asString());
    return fingerprints;
}

/** A kill between a batch's write and its fsync: the recovery records
 * every job exactly once in the canonical store. */
void
expectEachJobRecordedOnce(Run &run)
{
    const std::size_t records = storeRecords(sweepStorePath(run.dir)).size();
    const std::size_t jobs = recordedJobs(run).size();
    run.expect(records == run.jobs && jobs == run.jobs,
               std::to_string(records) + " records of " + std::to_string(jobs)
                   + " jobs in the store");
}

/** Once the recovery has drained, no checkpoint file of a completed
 * job is left: neither generation, nor a staging copy a kill left
 * mid-write. */
void
expectNoCheckpointOfACompletedJob(Run &run)
{
    std::set<std::string> completed;
    for (const JsonValue &record : storeRecords(sweepStorePath(run.dir)))
        if (const JsonValue *done = record.find("completed");
            done && done->asBool())
            completed.insert(record.at("fingerprint").asString());
    std::error_code ec;
    for (const auto &entry :
         fs::directory_iterator(sweepCheckpointDir(run.dir), ec)) {
        const std::string name = entry.path().filename().string();
        run.expect(completed.count(name.substr(0, name.find('.'))) == 0,
                   "checkpoint file " + name + " of a completed job left");
    }
}

/**
 * A kill between a checkpoint write's rotate and its atomic write
 * leaves only `<fp>.json.prev`, which a resume restores. On a copy of
 * the killed sweep made so, `--status` must show that job paused at
 * the `.prev` iteration, not pending.
 */
void
expectPausedFromPrevGeneration(Run &run)
{
    const std::string copy = run.root + "/sweep-prev";
    fs::copy(run.dir, copy, fs::copy_options::recursive);
    const Args current = listSortedFiles(sweepCheckpointDir(copy), ".json");
    run.expect(!current.empty(), "the killed run left no checkpoint");
    if (current.empty())
        return;
    const std::string prev = current[0] + ".prev";
    fs::rename(current[0], prev);
    const std::string fp = fs::path(current[0]).stem().string();
    const std::string iteration = std::to_string(
        JsonValue::parse(readOrEmpty(prev)).at("iteration").asInt());
    const Args rows = lines(run.viewOk({"--status", "--out", copy}));
    run.expect(std::any_of(rows.begin(), rows.end(),
                           [&](const std::string &row) {
                               return startsWith(row, fp + " ")
                                   && row.find(" paused ") != std::string::npos
                                   && row.find("checkpoint at iter " + iteration
                                               + "/")
                                       != std::string::npos;
                           }),
               "--status: job " + fp + " with only .prev is not paused at "
                   + iteration);
}

/**
 * Resume after a kill picks up the newest durable checkpoint: every
 * job the killed process (the drain process that exited by SIGKILL;
 * its journal origin is "<id>-p<pid>") journaled a checkpoint for is
 * either completed by another process that resumed it from that
 * iteration or later, or completed by no other process because the
 * killed one had already written its record (a kill between a group
 * commit's write and its fsync) — then the record must be in the
 * store. A journal can lag the disk (a concurrent lane's checkpoint
 * lands before its event is flushed) but never lead it.
 */
void
expectResumedFromNewestCheckpoint(Run &run)
{
    const auto killed_at =
        std::find(run.status.begin(), run.status.end(), 128 + SIGKILL);
    run.expect(killed_at != run.status.end(), "no drain process was killed");
    if (killed_at == run.status.end())
        return;
    const std::string killed_suffix =
        "-p" + std::to_string(run.pids[killed_at - run.status.begin()]);
    const auto is_killed = [&](const std::string &origin) {
        return origin.size() > killed_suffix.size()
            && origin.compare(origin.size() - killed_suffix.size(),
                              killed_suffix.size(), killed_suffix)
            == 0;
    };
    std::map<std::string, std::int64_t> newest, resumed;
    std::set<std::string> rerun; // completed by a surviving process
    for (const EventRow &row :
         eventRows(run.viewOk({"--events", "--out", run.dir}))) {
        if (row.type == "job.completed" && !is_killed(row.origin))
            rerun.insert(row.job);
        const JsonValue *it =
            row.detail.isObject() ? row.detail.find("iteration") : nullptr;
        if (!it)
            continue;
        if (row.type == "job.checkpointed" && is_killed(row.origin))
            newest[row.job] = std::max(newest[row.job], it->asInt());
        if (row.type == "job.resumed" && !is_killed(row.origin))
            resumed[row.job] = std::max(resumed[row.job], it->asInt());
    }
    run.expect(!newest.empty(), "the killed process journaled no checkpoint");
    const std::set<std::string> stored = recordedJobs(run);
    for (const auto &[job, iteration] : newest)
        if (rerun.count(job) == 0)
            run.expect(stored.count(job) != 0,
                       "job " + job + " checkpointed at "
                           + std::to_string(iteration)
                           + " but neither resumed nor recorded");
        else
            run.expect(resumed.count(job) != 0 && resumed[job] >= iteration,
                       "job " + job + " checkpointed at "
                           + std::to_string(iteration) + " but resumed from "
                           + (resumed.count(job)
                                  ? std::to_string(resumed[job])
                                  : std::string("scratch")));
}

/** Supervisor flags, then `--` and the workers' flags. */
Args
fleetArgs(Args supervisor, const Args &workers)
{
    supervisor.push_back("--");
    supervisor.insert(supervisor.end(), workers.begin(), workers.end());
    return supervisor;
}

/** The chaos fleets: 3 slots, fast leases and backoffs. */
Args
chaosFleetArgs(Args extra)
{
    Args supervisor = {"--id-prefix", "chaos", "--restart-backoff-ms",
                       "50", "--crash-loop-window-ms", "60000",
                       "--grace-ms", "2000", "--poll-ms", "25"};
    supervisor.insert(supervisor.end(), extra.begin(), extra.end());
    return fleetArgs(supervisor, {"--no-merge", "--lease-ms", "400",
                                  "--poll-ms", "25", "--retry-backoff-ms",
                                  "10"});
}

/** The smoke fleets' flags, slot ids `<prefix>-w<k>`. */
Args
smokeFleetArgs(const std::string &prefix, Args extra = {})
{
    Args supervisor = {"--id-prefix", prefix, "--restart-backoff-ms",
                       "100", "--poll-ms", "50"};
    supervisor.insert(supervisor.end(), extra.begin(), extra.end());
    return fleetArgs(supervisor, {"--lease-ms", "3000", "--poll-ms", "50",
                                  "--retry-backoff-ms", "50"});
}

/** `times` child kills fleet-wide, each after a durable checkpoint. */
std::string
fleetKills(const std::string &outRoot, const std::string &drill, int times)
{
    return R"({"site": "checkpoint.written", "action": "crash", "hit": 1, "times": )"
        + std::to_string(times) + ", \"tokens\": "
        + JsonValue(crashTokens(outRoot, drill)).dump() + "}";
}

void checkObservability(Run &run);
void checkTimeline(Run &run);
void checkScale(Run &run);

/**
 * The drill matrix. The chaos drills cover every recovery path:
 * syscall failures on the atomic-write and claim hot paths, torn store
 * records and checkpoints (the CRC quarantine paths), heartbeat loss,
 * abandoned locks, injected I/O latency, a probabilistic
 * acquire-failure schedule, SIGKILL before the 1st/2nd/3rd/5th
 * checkpoint write and between a commit batch's write and its fsync
 * (in a worker and in the scheduler), and the self-healing fleet.
 */
std::vector<Drill>
drillMatrix(const std::string &outRoot, int chaosJobs)
{
    std::vector<Drill> drills;
    // Every job has interior checkpoints (4 and 8) for the crash drills.
    const JsonValue chaos = fieldSweep("chaos", 4, 12, 4, chaosJobs);
    for (const auto &[name, faults] :
         std::vector<std::pair<const char *, const char *>>{
             {"rename-fails-once",
              R"([{"site": "file.write_atomic.rename", "action": "fail-errno", "errno": "EIO", "hit": 1}])"},
             {"fsync-fails-once",
              R"([{"site": "file.write_atomic.fsync", "action": "fail-errno", "errno": "EIO", "hit": 1}])"},
             {"read-fails-once",
              R"([{"site": "file.read", "action": "fail-errno", "errno": "EIO", "hit": 2}])"},
             {"stage-write-torn",
              R"([{"site": "file.write_atomic.stage", "action": "torn-write", "keepFraction": 0.5, "hit": 1}])"},
             {"claim-acquire-fails",
              R"([{"site": "claim.acquire", "action": "fail-errno", "errno": "EAGAIN", "hit": 1, "times": 3}])"},
             {"claim-acquire-flaky",
              R"([{"site": "claim.acquire", "action": "fail-errno", "errno": "EAGAIN", "probability": 0.3, "times": 0}])"},
             {"heartbeat-loss",
              R"([{"site": "claim.renew", "action": "fail-errno", "errno": "EIO", "hit": 1}])"},
             {"release-leaves-lock",
              R"([{"site": "claim.release", "action": "fail-errno", "errno": "EIO", "hit": 1, "times": 2}])"},
             {"store-append-fails",
              R"([{"site": "store.append", "action": "fail-errno", "errno": "EIO", "hit": 1}])"},
             {"store-append-torn",
              R"([{"site": "store.append", "action": "torn-write", "keepFraction": 0.4, "hit": 1}])"},
             {"checkpoint-torn-then-crash",
              R"([{"site": "checkpoint.write", "action": "torn-write", "keepFraction": 0.6, "hit": 2}, {"site": "checkpoint.write", "action": "crash", "hit": 3}])"},
             {"checkpoint-write-slow",
              R"([{"site": "checkpoint.write", "action": "delay-ms", "ms": 600, "hit": 1}])"},
             {"crash-at-checkpoint-1",
              R"([{"site": "checkpoint.write", "action": "crash", "hit": 1}])"},
             {"crash-at-checkpoint-2",
              R"([{"site": "checkpoint.write", "action": "crash", "hit": 2}])"},
             {"crash-at-checkpoint-3",
              R"([{"site": "checkpoint.write", "action": "crash", "hit": 3}])"},
             {"crash-at-checkpoint-5",
              R"([{"site": "checkpoint.write", "action": "crash", "hit": 5}])"},
         })
        drills.push_back({name, "chaos", chaos, faults});
    // Group commit: SIGKILL between the claim batch's shard write and
    // its fsync (journal appends are best-effort and never reach the
    // site). No claim was released and no checkpoint retired; the
    // recovery must still record every job exactly once.
    const char *crash_before_fsync =
        R"([{"site": "file.append.fsync", "action": "crash", "hit": 1}])";
    drills.push_back({"crash-before-batch-fsync", "chaos", chaos,
                      crash_before_fsync});
    drills.back().afterRecovery = expectEachJobRecordedOnce;
    // The same kill in `treevqa_run --jobs 4`, on a sweep of more jobs
    // than one commit batch, so lanes are mid-job when the first batch
    // is written. The rerun skips the written batch's jobs, retiring
    // the checkpoint files they left (staging copies of lanes killed
    // mid-write included), and resumes the rest.
    drills.push_back({"scheduler-crash-before-batch-fsync", "chaos",
                      fieldSweep("chaos-batch", 4, 12, 4, kGroupCommitBatch + 4),
                      crash_before_fsync, Drain::Scheduler, {"--jobs", "4"}});
    drills.back().afterRecovery = [](Run &run) {
        expectEachJobRecordedOnce(run);
        expectResumedFromNewestCheckpoint(run);
    };

    const auto fleet = [&](const char *name, std::string faults,
                           Args extra, std::function<void(Run &)> check) {
        Drill d{name, "chaos", chaos, std::move(faults), Drain::Fleet,
                chaosFleetArgs(std::move(extra))};
        d.check = std::move(check);
        return d;
    };
    // Child SIGKILL storm: every child crashes after a durable
    // checkpoint while a token is left, and the O_EXCL tokens make that
    // exactly two kills fleet-wide (a per-process budget would re-fire
    // in every restarted child). The fleet still drains itself.
    const std::string storm = "supervisor-kill-storm";
    drills.push_back(fleet(
        storm.c_str(), "[" + fleetKills(outRoot, storm, 2) + "]", {},
        [tokens = crashTokens(outRoot, storm)](Run &run) {
            run.expectFleet(true, 0);
            run.expectAtLeast(0, "crashes", 2);
            const std::size_t left = listSortedFiles(tokens, "").size();
            run.expect(left == 2, std::to_string(left) + " crash tokens");
            run.expectSupervisorRow();
        }));
    // Hung job: worker.hang wedges the second iteration of every child
    // life for 3 s while the heartbeat keeps renewing with a frozen
    // progress stamp, so the watchdog SIGKILLs the child and records a
    // timedOut attempt. Every job drains by exhausting the fleet-wide
    // budget. One claim per child, so the slots hang on different jobs
    // at once instead of taking turns on one batch (the supervisor
    // smoke drill hangs a whole batch).
    drills.push_back(fleet(
        "supervisor-hang-timeout",
        R"([{"site": "worker.hang", "action": "delay-ms", "ms": 3000, "hit": 2}])",
        {"--job-timeout-ms", "300"}, [](Run &run) {
            run.expectFleet(true, 0);
            run.expectAtLeast(0, "watchdog-kills", 1);
            run.expectAtLeast(0, "timeout-records", 1);
            run.expectSupervisorRow();
        }));
    drills.back().args.insert(drills.back().args.end(),
                              {"--claim-batch", "1"});
    drills.back().recoveryMaxAttempts = 100;
    // Crash loop: every child life SIGKILLs at its first checkpoint
    // write, so the circuit breaker retires all three slots (two
    // abnormal exits each) and the supervisor gives up undrained.
    drills.push_back(fleet(
        "supervisor-crash-loop-retire",
        R"([{"site": "checkpoint.write", "action": "crash", "hit": 1}])",
        {"--crash-loop-k", "2"}, [](Run &run) {
            run.expectFleet(false, 3);
            run.expectAtLeast(0, "crashes", 6);
            run.expectSupervisorRow();
        }));
    // Fleet-wide poison: every attempt of every job throws in every
    // child. The attempt records must cap each job at the budget (3)
    // across the whole fleet, not per worker; the sweep drains degraded.
    drills.push_back(fleet(
        "fleet-poison-skip",
        R"([{"site": "worker.job", "action": "fail-errno", "errno": "EIO", "hit": 1, "times": 0}])",
        {}, [](Run &run) {
            run.expectFleet(true, 0);
            std::size_t failed = 0, over_budget = 0;
            for (const JsonValue &record :
                 storeRecords(sweepStorePath(run.dir))) {
                const JsonValue *f = record.find("failed");
                if (!f || !f->asBool())
                    continue;
                ++failed;
                const std::int64_t attempts = record.at("attempts").asInt();
                over_budget += attempts < 1 || attempts > 3;
            }
            run.expect(failed == run.jobs,
                       std::to_string(failed) + " poisoned jobs");
            run.expect(over_budget == 0,
                       std::to_string(over_budget)
                           + " job(s) over the fleet-wide budget");
            run.expectSupervisorRow();
        }));
    drills.back().recoveryMaxAttempts = 100;

    // ---- smoke: the end-to-end CLI cycles ----
    const JsonValue fleet_sweep = fieldSweep("fleet-tfim", 6, 40, 5, 6);
    const std::string kill_at_2 =
        R"([{"site": "checkpoint.written", "action": "crash", "hit": 2}])";
    // treevqa_run at 4 lanes SIGKILLed after the sweep's second durable
    // checkpoint; the rerun resumes every job from its newest one.
    drills.push_back({"orchestration", "smoke",
                      tfimSweep("orch-tfim", 6, 40, 10, 1024,
                                "{\"field\": " + steps(6, 4, 3, 10.0) + "}"),
                      kill_at_2, Drain::Scheduler, {"--jobs", "4"}});
    drills.back().check = [](Run &run) {
        run.expect(run.status[0] == 128 + SIGKILL,
                   "killed run exited " + std::to_string(run.status[0]));
        expectPausedFromPrevGeneration(run);
    };
    drills.back().afterRecovery = expectResumedFromNewestCheckpoint;
    // Two workers: the first holds every claim (one batch) and SIGKILLs
    // itself after its second durable checkpoint; the survivor reaps
    // the dead leases, resumes the job, drains and compacts.
    drills.push_back({"distributed", "smoke", fleet_sweep, kill_at_2,
                      Drain::Workers,
                      {"--lease-ms", "400", "--poll-ms", "25"}});
    drills.back().check = [](Run &run) {
        run.expectValid();
        const std::string bad = run.root + "/bad.json";
        writeTextFileAtomic(bad, "{\"problem\": \"nope\"}\n");
        run.expect(run.view({bad, "--validate"}).first != 0,
                   "--validate accepted a broken spec");
        run.expect(run.status[0] == 128 + SIGKILL && run.status[1] == 0,
                   "worker exits " + std::to_string(run.status[0]) + ","
                       + std::to_string(run.status[1]));
        run.expectAtLeast(1, "reaped", 1);
        run.expectAtLeast(1, "resumed", 1);
        run.expect(run.printed(1, "drained=yes merged=yes"),
                   "w2 did not drain and compact");
        expectResumedFromNewestCheckpoint(run);
    };
    // A 3-child fleet through a failure storm: two fleet-wide SIGKILLs
    // after durable checkpoints, and a hang at each child's 25th
    // iteration until the watchdog kills it.
    drills.push_back(
        {"supervisor", "smoke", fleet_sweep,
         "[" + fleetKills(outRoot, "supervisor", 2)
             + R"(, {"site": "worker.hang", "action": "delay-ms", "ms": 3000, "hit": 25}])",
         Drain::Fleet,
         smokeFleetArgs("sup", {"--job-timeout-ms", "300", "--grace-ms",
                                "3000", "--no-merge"})});
    drills.back().recoveryMaxAttempts = 100;
    drills.back().check = [](Run &run) {
        run.expectAtLeast(0, "crashes", 2);
        run.expectAtLeast(0, "restarts", 1);
        run.expectAtLeast(0, "watchdog-kills", 1);
        run.expectAtLeast(0, "timeout-records", 1);
        run.expectSupervisorRow();
        // Each watchdog kill charges the job its slot was running: the
        // slot's last job.claimed before the kill.
        std::map<std::string, std::string> running;
        for (const EventRow &row : eventRows(run.viewOk({"--events", "--out", run.dir}))) {
            if (row.type == "job.claimed")
                running[row.worker] = row.job;
            if (row.type != "fleet.watchdog_kill")
                continue;
            const JsonValue *slot =
                row.detail.isObject() ? row.detail.find("slot") : nullptr;
            const std::string id = slot ? slot->asString() : "";
            run.expect(row.job == running[id],
                       "watchdog kill of " + id + " charged " + row.job
                           + ", not its running job " + running[id]);
        }
    };
    // A traced fleet drains through one SIGKILL; 400 iterations keep
    // the sweep running past the restart backoff, so the replacement
    // incarnation journals spans of its own.
    drills.push_back({"observability", "smoke",
                      fieldSweep("obs-tfim", 6, 400, 5, 6),
                      "[" + fleetKills(outRoot, "observability", 1) + "]",
                      Drain::Fleet, smokeFleetArgs("obs")});
    drills.back().trace = true;
    drills.back().check = checkObservability;
    // A fleet drains through one SIGKILL; the journals must then tell
    // the resumed job's story.
    drills.push_back({"timeline", "smoke", fleet_sweep,
                      "[" + fleetKills(outRoot, "timeline", 1) + "]",
                      Drain::Fleet, smokeFleetArgs("tl")});
    drills.back().check = checkTimeline;
    // 10^4 jobs (100 fields x 100 seeds of a 2-qubit TFIM, one
    // iteration each: claim-path cost, not simulation) through a
    // 4-slot fleet with batched claims and the incremental tail reader.
    drills.push_back(
        {"dist-scale", "scale",
         tfimSweep("scale-tfim", 2, 1, 0, 16,
                   "{\"field\": " + steps(50, 1, 100, 100.0)
                       + ", \"seed\": " + steps(1, 1, 100, 1.0) + "}"),
         "[]", Drain::Fleet,
         fleetArgs({"--id-prefix", "scale", "--poll-ms", "100"},
                   {"--claim-batch", "16", "--lease-ms", "10000",
                    "--poll-ms", "20"}),
         4});
    drills.back().check = checkScale;
    return drills;
}

void
checkObservability(Run &run)
{
    run.expectFleet(true, 0);
    run.expectAtLeast(0, "crashes", 1);
    run.expectAtLeast(0, "restarts", 1);
    run.expectAtLeast(0, "spawns", 4);

    // Every identity journaled its armed spans, and the SIGKILLed
    // incarnation's spans survive beside its replacement's: more
    // journals carry spans than there are identities. Every span
    // decodes (CRC included) with a name and a duration.
    const Args ids = {"obs-w0", "obs-w1", "obs-w2", "supervisor"};
    std::map<std::string, std::size_t> span_journals;
    std::size_t journals = 0;
    for (const std::string &path : listSortedFiles(run.dir + "/events", ".jsonl")) {
        const std::string file = fs::path(path).filename().string();
        std::size_t spans = 0;
        for (const std::string &line : lines(readOrEmpty(path))) {
            if (line.find("\"type\":\"trace.span\"") == std::string::npos)
                continue;
            SweepEvent event;
            std::string reason;
            if (!decodeEventLine(line, event, &reason)) {
                run.expect(false, file + ": undecodable span: " + reason);
                continue;
            }
            const JsonValue *name = event.detail.find("name");
            const JsonValue *dur = event.detail.find("durUs");
            run.expect(event.type == event_type::kTraceSpan && name
                           && name->isString() && dur && dur->asInt() >= 0,
                       file + ": malformed span " + event.detail.dump());
            ++spans;
        }
        if (spans == 0)
            continue;
        ++journals;
        for (const std::string &id : ids)
            if (startsWith(file, id + "-p"))
                ++span_journals[id];
    }
    for (const std::string &id : ids)
        run.expect(span_journals[id] > 0, "no span journal from " + id);
    run.expect(journals > 4, std::to_string(journals) + " journals with spans");
    run.expect(!fs::exists(run.dir + "/traces"), "a traces/ directory was written");

    // Merged metrics count exactly the drained jobs: the SIGKILLed
    // incarnation flushed its completions with each beat, and its
    // replacement never re-counts recorded jobs.
    const JsonValue m =
        JsonValue::parse(run.viewOk({"--metrics", "--out", run.dir}));
    const auto counter = [&](const char *name) {
        const JsonValue *v = m.at("counters").find(name);
        return v ? v->asInt() : -1;
    };
    const auto jobs = static_cast<std::int64_t>(run.jobs);
    const std::int64_t completed = counter("worker.jobs_completed");
    run.expect(m.at("processes").asInt() >= 4, "fewer than 4 dumps");
    run.expect(completed == jobs,
               "worker.jobs_completed=" + std::to_string(completed));
    run.expect(counter("worker.claims_acquired") >= jobs,
               "too few claims_acquired");
    run.expect(counter("supervisor.spawns") >= 3
                   && counter("supervisor.restarts") >= 1,
               "supervisor spawn/restart counters");
    for (const char *phase : {"runner.step_ns", "worker.job_ns",
                              "worker.scan_ns", "supervisor.spawn_ns"}) {
        const JsonValue *p = m.at("phases").find(phase);
        run.expect(p && p->at("count").asInt() > 0,
                   std::string("phase ") + phase + " never ran");
    }

    // --health carries staleness verdicts, and sums the same counters
    // over every incarnation.
    const JsonValue h =
        JsonValue::parse(run.viewOk({"--health", "--out", run.dir}));
    run.expect(h.contains("staleWorkers"), "--health: no staleWorkers");
    for (const JsonValue &row : h.at("workers").asArray())
        run.expect(row.contains("staleSeconds") && row.contains("stale")
                       && row.at("flushIntervalMs").asInt() > 0,
                   "--health row without staleness fields");
    run.expect(h.at("jobsCompleted").asInt() == completed,
               "--health jobsCompleted differs from --metrics");
}

void
checkTimeline(Run &run)
{
    run.expectFleet(true, 0);
    run.expectAtLeast(0, "crashes", 1);
    run.expectAtLeast(0, "restarts", 1);
    const std::string out = run.dir, n = std::to_string(run.jobs);
    const auto count = [&](const Args &args) {
        return lines(run.viewOk(args)).size();
    };
    run.expect(count({"--events", "--out", out, "--type", "trace.span"}) == 0,
               "an untraced fleet journaled trace.span events");
    const auto any_starts = [](const Args &rows, const std::string &head) {
        return std::any_of(rows.begin(), rows.end(),
                           [&](const std::string &row) {
                               return startsWith(row, head);
                           });
    };

    // Paged status: --limit caps the rows, --after resumes strictly
    // past a cursor, and the totals line always covers the sweep.
    const Args page1 =
        lines(run.viewOk({"--status", "--out", out, "--limit", "2"}));
    run.expect(page1.size() == 4
                   && any_starts(page1, n + " jobs: " + n + " done,"),
               "--status --limit 2: unexpected page");
    if (page1.size() == 4) {
        const std::string cursor = page1[2].substr(0, page1[2].find(' '));
        const Args page2 = lines(run.viewOk(
            {"--status", "--out", out, "--limit", "2", "--after", cursor}));
        run.expect(page2.size() == 4 && !any_starts(page2, cursor + " "),
                   "--status --after: unexpected page");
    }

    // A quarantined store line turns --status into exit 3.
    const std::string bad = run.root + "/sweep-bad";
    fs::copy(out, bad, fs::copy_options::recursive);
    appendTextDurable(sweepStorePath(bad), "not json at all\n");
    run.expect(
        run.view({"--status", "--out", bad, "--summary-only"}).first == 3,
        "--status did not exit 3 on a quarantined line");

    // The resumed job's timeline tells the handoff story in causal
    // order, across at least two process incarnations.
    const std::vector<EventRow> resumed = eventRows(
        run.viewOk({"--events", "--out", out, "--type", "job.resumed"}));
    run.expect(!resumed.empty(), "no job.resumed event");
    if (resumed.empty())
        return;
    const std::string fp = resumed[0].job;
    const std::string timeline = run.viewOk({"--timeline", fp, "--out", out});
    const Args tl = lines(timeline);
    run.expect(!tl.empty() && startsWith(tl[0], "timeline for job "),
               "--timeline: no header");
    Args types;
    std::vector<std::tuple<long long, long long, std::string>> keys;
    std::set<std::string> origins;
    for (std::size_t i = 1; i < tl.size(); ++i) {
        std::istringstream in(tl[i]);
        std::string stamp, origin, type;
        in >> stamp >> origin >> type;
        keys.emplace_back(std::atoll(stamp.c_str()),
                          std::atoll(stamp.c_str() + stamp.find('.') + 1),
                          origin);
        types.push_back(type);
        origins.insert(origin);
    }
    auto last = types.begin();
    for (const char *step : {"job.claimed", "fleet.crash", "lease.reaped",
                             "job.resumed", "job.completed"}) {
        const auto it = std::find(types.begin(), types.end(), step);
        run.expect(it != types.end() && it >= last,
                   std::string("--timeline: ") + step
                       + " missing or out of order");
        last = it == types.end() ? last : std::max(last, it);
    }
    run.expect(std::adjacent_find(keys.begin(), keys.end(),
                                  std::greater_equal<>())
                   == keys.end(),
               "--timeline: HLC keys not strictly increasing");
    run.expect(origins.size() >= 2, "--timeline: one incarnation only");

    // The bytes do not depend on the order the journals are read in.
    const std::string rev = run.root + "/sweep-rev";
    fs::create_directories(rev + "/events");
    Args journals = listSortedFiles(out + "/events", ".jsonl");
    std::reverse(journals.begin(), journals.end());
    for (std::size_t i = 0; i < journals.size(); ++i)
        fs::copy_file(journals[i],
                      rev + "/events/z" + std::to_string(100 + i) + "-"
                          + fs::path(journals[i]).filename().string());
    run.expect(run.viewOk({"--timeline", fp, "--out", rev}) == timeline,
               "--timeline bytes depend on journal read order");

    // --events filters compose and page in HLC order.
    const std::string all = run.viewOk({"--events", "--out", out});
    const std::vector<EventRow> rows = eventRows(all);
    run.expect(std::count_if(rows.begin(), rows.end(),
                             [](const EventRow &r) {
                                 return r.type == "job.completed";
                             })
                   >= static_cast<long>(run.jobs),
               "--events: missing job.completed rows");
    run.expect(count({"--events", "--out", out, "--type", "job.expanded"})
                   == run.jobs,
               "--events --type job.expanded: not one row per job");
    run.expect(count({"--events", "--out", out, "--job", fp}) >= 5,
               "--events --job: fewer than 5 rows");
    const std::string p1 =
        run.viewOk({"--events", "--out", out, "--limit", "5"});
    const std::vector<EventRow> p1_rows = eventRows(p1);
    run.expect(!p1_rows.empty()
                   && p1 + run.viewOk({"--events", "--out", out, "--after",
                                       p1_rows.back().key})
                       == all,
               "--events paging lost or repeated rows");
    if (rows.size() >= 3)
        run.expect(count({"--events", "--out", out, "--since-hlc",
                          rows[2].key, "--until-hlc", rows[2].key})
                       == 1,
                   "--since-hlc/--until-hlc did not bracket one event");

    // --metrics --since over the same dumps: totals carry, deltas and
    // rates are zero.
    const std::string prior = run.root + "/metrics1.json";
    writeTextFileAtomic(prior, run.viewOk({"--metrics", "--out", out}));
    const JsonValue d = JsonValue::parse(
        run.viewOk({"--metrics", "--out", out, "--since", prior}));
    run.expect(d.at("asOfMs").asInt() > 0
                   && d.at("sinceMs").asInt() == d.at("asOfMs").asInt()
                   && d.at("intervalSeconds").asDouble() == 0.0,
               "--metrics --since: wrong interval");
    const JsonValue &row = d.at("counters").at("worker.jobs_completed");
    run.expect(row.at("total").asInt() >= static_cast<std::int64_t>(run.jobs)
                   && row.at("delta").asInt() == 0
                   && row.at("perSec").asDouble() == 0.0,
               "--metrics --since: wrong jobs_completed row");
    for (const auto &[name, counter] : d.at("counters").asObject())
        run.expect(counter.contains("delta") && counter.contains("perSec"),
                   "--metrics --since: " + name + " without a rate");

    // --watch diffs successive rounds.
    const std::string watch =
        run.viewOk({"--watch", "--out", out, "--watch-rounds", "2",
                    "--watch-interval-ms", "200"});
    run.expect(watch.find("watch 1: totals jobs=") != std::string::npos
                   && watch.find("watch 2: jobs/s ") != std::string::npos,
               "--watch did not print two rounds");
}

void
checkScale(Run &run)
{
    run.expectValid();
    run.expectFleet(true, 0);
    // Compaction on drain folded every shard into the canonical store.
    run.expect(fs::is_empty(run.dir + "/workers"), "shards left in workers/");
    long long claims = 0, bytes_read = 0;
    for (const std::string &path :
         listSortedFiles(run.dir + "/logs", ".log")) {
        const std::string text = readOrEmpty(path);
        for (const auto &[key, total] :
             {std::pair{" claims=", &claims}, {" store-bytes=", &bytes_read}})
            for (std::size_t at = text.find(key); at != std::string::npos;
                 at = text.find(key, at + 1))
                *total += std::atoll(text.c_str() + at + std::strlen(key));
    }
    const auto store =
        static_cast<long long>(fs::file_size(sweepStorePath(run.dir)));
    const auto jobs = static_cast<long long>(run.jobs);
    // Batched claims: about one lock round-trip per drained job.
    run.expect(claims < 2 * jobs, std::to_string(claims) + " claim attempts");
    // Incremental tail scanning: each worker reads each peer's
    // appended byte once (its own commits are folded from memory),
    // plus a full re-read after a peer's compaction (~3x the final
    // store with 4 workers). A full rescan per scan round reads
    // scan-rounds x store and blows far past 16x.
    run.expect(bytes_read < 16 * store,
               std::to_string(bytes_read) + " store bytes read, store is "
                   + std::to_string(store));
    std::printf("dist-scale: claims/job=%.3f bytes-read/store=%.1fx\n",
                static_cast<double>(claims) / static_cast<double>(jobs),
                static_cast<double>(bytes_read) / static_cast<double>(store));
    run.viewOk({"--health", "--out", run.dir});
}

// -------------------------------------------------------------- running

/**
 * Planned sites of `faults` that the armed process never fired,
 * comma-joined in plan order, judged from its output `log` (the
 * kFiresPrefix line) and its exit `status`. A site is proven by a
 * nonzero fire count or — a crashed process cannot report — by a
 * SIGKILL death when one of its entries is a crash.
 */
std::string
unfiredSites(const std::string &faults, const std::string &log, int status)
{
    JsonValue fires = JsonValue::object();
    const std::size_t at = log.rfind(kFiresPrefix);
    if (at != std::string::npos) {
        const std::size_t begin = at + std::strlen(kFiresPrefix);
        fires = JsonValue::parse(
            log.substr(begin, log.find('\n', begin) - begin));
    }
    Args sites;
    std::set<std::string> proven;
    const JsonValue plan = JsonValue::parse(faults);
    for (const JsonValue &entry : plan.asArray()) {
        const std::string site = entry.at("site").asString();
        if (std::find(sites.begin(), sites.end(), site) == sites.end())
            sites.push_back(site);
        const JsonValue *count = fires.find(site);
        if ((count && count->asInt() > 0)
            || (status == 128 + SIGKILL
                && entry.at("action").asString() == "crash"))
            proven.insert(site);
    }
    std::string unfired;
    for (const std::string &site : sites)
        if (proven.count(site) == 0)
            unfired += (unfired.empty() ? "" : ",") + site;
    return unfired;
}

/**
 * A fault schedule may lose observability dumps but must never leave a
 * malformed one: metrics snapshots are atomic renames and
 * journals append whole line batches. The one tolerated exception is
 * a torn *final* journal line (a mid-append kill), which the CRC check
 * quarantines at read time. Returns the problems, "; "-joined.
 */
std::string
auditObservabilityDumps(const std::string &dir)
{
    std::string problems;
    const auto complain = [&](const std::string &what) {
        problems += (problems.empty() ? "" : "; ") + what;
    };
    for (const std::string &path : listSortedFiles(dir + "/metrics", ".json")) {
        try {
            JsonValue::parse(readOrEmpty(path));
        } catch (const std::exception &) {
            complain("metrics/" + fs::path(path).filename().string()
                     + ": malformed JSON");
        }
    }
    for (const std::string &path :
         listSortedFiles(dir + "/events", ".jsonl")) {
        const std::string text = readOrEmpty(path);
        const Args rows = lines(text);
        std::size_t bad = 0, last_bad = 0;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            try {
                if (!rows[i].empty())
                    JsonValue::parse(rows[i]);
            } catch (const std::exception &) {
                ++bad;
                last_bad = i + 1;
            }
        }
        const bool torn_tail_only = bad == 1 && last_bad == rows.size()
            && text.back() != '\n';
        if (bad > 0 && !torn_tail_only)
            complain("events/" + fs::path(path).filename().string() + ": "
                     + std::to_string(bad) + " malformed line(s)");
    }
    return problems;
}

/** A single-process reference: summary.json and completed energies. */
using Reference = std::pair<std::string, std::map<std::string, double>>;

/** `treevqa_run SPEC --jobs 1` into `dir`. */
Reference
runReference(const std::string &spec, const std::string &dir)
{
    const int rc = finish(start({{siblingBinary("treevqa_run"), spec, "--out",
                                  dir, "--jobs", "1"},
                                 "", false, dir + ".log", dir + ".log"}));
    std::string summary;
    if (rc != 0 || !readTextFile(sweepSummaryPath(dir), summary))
        throw std::runtime_error("reference run " + dir + " exited "
                                 + std::to_string(rc));
    return {summary, completedEnergies(sweepStorePath(dir))};
}

/** The drain of `drill`, or with `armed` false its recovery run. */
std::vector<Launch>
drainLaunches(const Drill &drill, const Run &run, const std::string &plan,
              bool armed, const std::string &self)
{
    const auto launch = [&](Args argv, std::size_t k) {
        const std::string log = run.root
            + (armed ? "/drain-" : "/recovery-") + std::to_string(k) + ".log";
        return Launch{std::move(argv), armed ? plan : "",
                      armed && drill.trace, log, log};
    };
    const auto with_args = [&](Args argv) {
        argv.insert(argv.end(), drill.args.begin(), drill.args.end());
        return argv;
    };
    const std::string worker = siblingBinary("treevqa_worker");
    if (drill.drain == Drain::Scheduler)
        return {launch(with_args({siblingBinary("treevqa_run"), run.spec,
                                  "--out", run.dir}),
                       0)};
    if (!armed)
        return {launch({worker, "--sweep-dir", run.dir, "--drain-and-exit",
                        "--worker-id", "recovery", "--lease-ms", "400",
                        "--poll-ms", "25", "--retry-backoff-ms", "10",
                        "--max-job-attempts",
                        std::to_string(drill.recoveryMaxAttempts)},
                       0)};
    if (drill.drain == Drain::Fleet)
        return {launch(with_args({siblingBinary("treevqa_supervisor"),
                                  "--sweep-dir", run.dir, "--spec", run.spec,
                                  "--workers", std::to_string(drill.workers)}),
                       0)};
    if (drill.drain == Drain::Worker)
        return {launch({self, "--drill-child", "--sweep-dir", run.dir}, 0)};
    std::vector<Launch> both;
    for (std::size_t k = 0; k < 2; ++k)
        both.push_back(launch(with_args({worker, "--sweep-dir", run.dir,
                                         "--worker-id",
                                         "w" + std::to_string(k + 1),
                                         "--drain-and-exit"}),
                              k));
    both[1].plan.clear(); // only the first is armed
    return both;
}

/** The outcome of one drill, for the console and the report. */
struct Verdict
{
    std::vector<int> drain;
    int recovery = -1;
    std::string summary = "MISSING"; // | identical | DIFFERENT
    std::string unfired, problems;
    bool passed = false;
    double seconds = 0.0;
};

Verdict
runDrill(const Drill &drill, std::size_t index, std::uint64_t seed,
         const std::string &outRoot, const std::string &self,
         std::size_t jobs, const std::shared_future<Reference> &reference)
{
    Run run{(fs::path(outRoot) / drill.name).string()};
    run.dir = run.root + "/sweep";
    run.spec = run.root + "/spec.json";
    run.jobs = jobs;
    fs::create_directories(run.root);
    const std::string sweep_text = drill.sweep.dump(2) + "\n";
    writeTextFileAtomic(run.spec, sweep_text);
    const std::string plan = run.root + "/plan.json";
    writeTextFileAtomic(plan, drillPlanJson(drill.faults, seed, index) + "\n");
    const bool armed = drill.faults != "[]";
    if (drill.drain == Drain::Worker || drill.drain == Drain::Workers) {
        fs::create_directories(run.dir);
        writeTextFileAtomic(sweepSpecPath(run.dir), sweep_text);
    }

    Verdict v;
    const auto t0 = std::chrono::steady_clock::now();
    try {
        // 1. The drain. The second of two workers starts once the
        // first holds a claim, so the armed one always has work.
        const std::vector<Launch> launches =
            drainLaunches(drill, run, armed ? plan : "", true, self);
        std::vector<pid_t> pids;
        for (const Launch &launch : launches) {
            const auto give_up =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (!pids.empty()
                   && listSortedFiles(sweepClaimDir(run.dir), ".lock").empty()
                   && std::chrono::steady_clock::now() < give_up)
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            pids.push_back(start(launch));
        }
        for (std::size_t k = 0; k < pids.size(); ++k) {
            run.status.push_back(finish(pids[k]));
            run.logs.push_back(readOrEmpty(launches[k].out));
        }
        run.pids = pids;
        v.drain = run.status;
        if (armed && drill.drain != Drain::Fleet)
            v.unfired =
                unfiredSites(drill.faults, run.logs[0], run.status[0]);
        // 2. The drill's own assertions.
        if (drill.check)
            drill.check(run);
        // 3. The disarmed recovery run.
        v.recovery =
            finish(start(drainLaunches(drill, run, "", false, self)[0]));
        if (drill.afterRecovery)
            drill.afterRecovery(run);
        // 4. The shared checks.
        run.expect(v.recovery == 0,
                   "recovery exited " + std::to_string(v.recovery));
        expectNoCheckpointOfACompletedJob(run);
        const std::string n = std::to_string(jobs);
        const std::string status =
            run.viewOk({"--status", "--out", run.dir, "--summary-only"});
        run.expect(startsWith(status, n + " jobs: " + n + " done,"),
                   "--status: " + status.substr(0, status.find('\n')));
        const auto &[ref_summary, ref_energies] = reference.get();
        std::string summary;
        if (readTextFile(sweepSummaryPath(run.dir), summary))
            v.summary = summary == ref_summary ? "identical" : "DIFFERENT";
        run.expect(ref_energies.size() == jobs
                       && completedEnergies(sweepStorePath(run.dir))
                           == ref_energies,
                   "completed energies differ from the reference store");
        const std::string dumps = auditObservabilityDumps(run.dir);
        run.expect(dumps.empty(), "observability dumps: " + dumps);
    } catch (const std::exception &e) {
        run.expect(false, e.what());
    }
    v.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    v.problems = run.problems;
    v.passed = v.problems.empty() && v.summary == "identical"
        && v.unfired.empty();
    return v;
}

/** "<index> <name> <plan>" per drill: what --print-matrix prints. */
std::string
renderMatrix(const std::vector<Drill> &drills, std::uint64_t seed)
{
    std::string out;
    for (std::size_t i = 0; i < drills.size(); ++i)
        out += std::to_string(i) + " " + drills[i].name + " "
            + drillPlanJson(drills[i].faults, seed, i) + "\n";
    return out;
}

int
runDrillChild(const std::string &sweepDir)
{
    int rc = 1;
    try {
        WorkerOptions options;
        options.sweepDir = sweepDir;
        // Short leases keep the abandoned-lock / heartbeat-loss drills
        // fast: recovery only ever waits lease + skew grace (clamped to
        // leaseMs/2) before reaping.
        options.leaseMs = 400;
        options.pollMs = 25;
        options.retryBackoffMs = 10;
        const WorkerReport report = WorkerDaemon(options).run();
        std::printf("drill child: completed=%zu resumed=%zu reaped=%zu "
                    "lost=%zu poisoned=%zu drained=%s\n",
                    report.completed, report.resumed, report.reapedLeases,
                    report.lostClaims, report.poisoned,
                    report.drained ? "yes" : "no");
        rc = report.drained ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "drill child: %s\n", e.what());
    }
    // Printed even when the drain throws: the fired-fault check reads it.
    JsonValue fires = JsonValue::object();
    for (const auto &[site, counters] :
         FaultInjection::instance().counters())
        fires.set(site, JsonValue(counters.fires));
    std::printf("%s%s\n", kFiresPrefix, fires.dump().c_str());
    return rc;
}

/** Run `tasks` concurrently, at most kProcessSlots processes' worth at
 * once (a task needing more runs alone). */
void
runConcurrently(std::vector<std::pair<int, std::function<void()>>> tasks)
{
    std::mutex mutex;
    std::condition_variable freed;
    int free_slots = kProcessSlots;
    std::vector<std::thread> threads;
    for (auto &[need, task] : tasks) {
        const int take = std::min(need, kProcessSlots);
        std::unique_lock<std::mutex> lock(mutex);
        freed.wait(lock, [&] { return free_slots >= take; });
        free_slots -= take;
        threads.emplace_back([&, take, fn = std::move(task)] {
            fn();
            std::lock_guard<std::mutex> done(mutex);
            free_slots += take;
            freed.notify_all();
        });
    }
    for (std::thread &thread : threads)
        thread.join();
}

int
usage(const char *argv0, bool requested)
{
    std::fprintf(requested ? stdout : stderr,
                 "usage: %s --seed S [--out DIR] [--jobs N] "
                 "[--only LABEL|DRILL] [--print-matrix]\n",
                 argv0);
    return requested ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string seed_text, only, sweep_dir, out_root = "chaos_scratch";
    long chaos_jobs = 6;
    bool print_matrix = false, drill_child = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next_value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--seed") {
            seed_text = next_value();
        } else if (arg == "--out") {
            out_root = next_value();
        } else if (arg == "--jobs") {
            if (!parsePositive(next_value(), chaos_jobs)) {
                std::fprintf(stderr, "--jobs must be >= 1\n");
                return 2;
            }
        } else if (arg == "--only") {
            only = next_value();
        } else if (arg == "--print-matrix") {
            print_matrix = true;
        } else if (arg == "--drill-child") {
            drill_child = true;
        } else if (arg == "--sweep-dir") {
            sweep_dir = next_value();
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0], true);
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return usage(argv[0], false);
        }
    }

    try {
        if (drill_child)
            return sweep_dir.empty() ? usage(argv[0], false)
                                     : runDrillChild(sweep_dir);
        if (seed_text.empty())
            return usage(argv[0], false);
        const std::uint64_t seed =
            std::strtoull(seed_text.c_str(), nullptr, 10);
        const std::vector<Drill> drills =
            drillMatrix(out_root, static_cast<int>(chaos_jobs));
        if (print_matrix) {
            std::printf("%s", renderMatrix(drills, seed).c_str());
            return 0;
        }
        std::vector<std::size_t> selected;
        for (std::size_t i = 0; i < drills.size(); ++i)
            if (only.empty() || drills[i].label == only
                || drills[i].name == only)
                selected.push_back(i);
        if (selected.empty()) {
            std::fprintf(stderr, "no drill is labelled or named %s\n",
                         only.c_str());
            return 2;
        }
        fs::remove_all(out_root);
        fs::create_directories(out_root);
        const std::string self = siblingBinary("treevqa_chaos");

        // The matrix is seed-stable: a re-executed --print-matrix
        // prints what this process renders, every drill once.
        const std::string printed = out_root + "/matrix.txt";
        finish(start({{self, "--seed", seed_text, "--out", out_root,
                       "--print-matrix"},
                      "", false, printed, out_root + "/matrix.log"}));
        std::set<std::string> names;
        for (const Drill &drill : drills)
            names.insert(drill.name);
        const bool stable = readOrEmpty(printed) == renderMatrix(drills, seed)
            && names.size() == drills.size();
        std::printf("matrix: %s\n",
                    stable ? "seed-stable" : "UNSTABLE or duplicate names");

        // One reference per distinct sweep, started at once and awaited
        // by each drill's compare.
        std::map<std::string, std::shared_future<Reference>> references;
        std::map<std::string, std::size_t> job_counts;
        for (const std::size_t i : selected) {
            const std::string name = drills[i].sweep.at("name").asString();
            if (references.count(name) != 0)
                continue;
            job_counts[name] = expandScenarios(drills[i].sweep).size();
            const std::string dir = out_root + "/reference-" + name;
            writeTextFileAtomic(dir + ".json", drills[i].sweep.dump(2) + "\n");
            references[name] = std::async(std::launch::async, runReference,
                                          dir + ".json", dir)
                                   .share();
        }

        // Fleets first: they take the longest and the most slots.
        std::stable_sort(selected.begin(), selected.end(),
                         [&](std::size_t a, std::size_t b) {
                             return drills[a].processes()
                                 > drills[b].processes();
                         });
        std::vector<Verdict> verdicts(drills.size());
        std::mutex print_mutex;
        std::vector<std::pair<int, std::function<void()>>> tasks;
        for (const std::size_t i : selected)
            tasks.emplace_back(drills[i].processes(), [&, i] {
                const Drill &drill = drills[i];
                const std::string sweep = drill.sweep.at("name").asString();
                const Verdict v =
                    runDrill(drill, i, seed, out_root, self,
                             job_counts.at(sweep), references.at(sweep));
                std::string drain;
                for (const int s : v.drain)
                    drain += (drain.empty() ? "" : ",") + std::to_string(s);
                std::lock_guard<std::mutex> lock(print_mutex);
                std::printf("drill %-28s %-5s %5.1fs drain=%-7s "
                            "recovery=%-3d summary=%s fired=%s%s%s\n",
                            drill.name.c_str(), drill.label.c_str(),
                            v.seconds, drain.c_str(), v.recovery,
                            v.summary.c_str(),
                            v.unfired.empty() ? "yes"
                                              : ("NO:" + v.unfired).c_str(),
                            v.problems.empty() ? "" : " PROBLEMS: ",
                            v.problems.c_str());
                std::fflush(stdout);
                verdicts[i] = v;
            });
        runConcurrently(std::move(tasks));

        std::sort(selected.begin(), selected.end());
        JsonValue report = JsonValue::object(), entries = JsonValue::array();
        std::size_t passed = 0;
        for (const std::size_t i : selected) {
            const Verdict &v = verdicts[i];
            passed += v.passed ? 1 : 0;
            JsonValue entry = JsonValue::object();
            entry.set("name", JsonValue(drills[i].name));
            entry.set("label", JsonValue(drills[i].label));
            entry.set("plan", JsonValue::parse(
                                  drillPlanJson(drills[i].faults, seed, i)));
            entry.set("recoveryStatus", JsonValue(v.recovery));
            entry.set("summary", JsonValue(v.summary));
            entry.set("unfiredSites", JsonValue(v.unfired));
            entry.set("problems", JsonValue(v.problems));
            entry.set("passed", JsonValue(v.passed));
            entries.push_back(std::move(entry));
        }
        report.set("seed", JsonValue(seed));
        report.set("matrixStable", JsonValue(stable));
        report.set("drills", std::move(entries));
        const std::string report_path = out_root + "/chaos_report.json";
        writeTextFileAtomic(report_path, report.dump(2) + "\n");
        std::printf("chaos: %zu/%zu drills passed (report: %s)\n", passed,
                    selected.size(), report_path.c_str());
        return stable && passed == selected.size() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "treevqa_chaos: %s\n", e.what());
        return 1;
    }
}
