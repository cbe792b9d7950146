/**
 * @file
 * Tests for the scenario-orchestration runtime (src/svc/) and its
 * foundations: the JSON layer's exact number round-trips, hardened
 * TREEVQA_NUM_THREADS parsing, optimizer state export/import, sweep
 * expansion, scheduler determinism at any pool size, kill-and-resume
 * bit-equivalence, and the append-only result store.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "svc/job_scheduler.h"
#include "svc/result_store.h"
#include "svc/scenario_runner.h"
#include "svc/scenario_spec.h"
#include "svc/sweep_dir.h"

#include "plan_crash.h"
#include "pool_size_guard.h"

namespace treevqa {
namespace {

// ------------------------------------------------------------- helpers

/** Fresh per-test scratch directory under the gtest temp root. */
std::filesystem::path
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / ("orch_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** A tiny, fast scenario (4-qubit TFIM, 1-layer HEA, SPSA). */
ScenarioSpec
tinySpec(const std::string &name, double field, int iterations = 12)
{
    ScenarioSpec spec;
    spec.name = name;
    spec.problem = "tfim";
    spec.size = 4;
    spec.field = field;
    spec.ansatz = "hea";
    spec.layers = 1;
    spec.engine.shotsPerTerm = 256;
    spec.maxIterations = iterations;
    spec.seed = 99;
    spec.checkpointInterval = 4;
    return spec;
}

void
expectJobsBitIdentical(const JobResult &a, const JobResult &b)
{
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.shotsUsed, b.shotsUsed);
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
    for (std::size_t i = 0; i < a.trajectory.size(); ++i)
        EXPECT_EQ(a.trajectory[i], b.trajectory[i]) << "iteration " << i;
    EXPECT_EQ(a.bestLoss, b.bestLoss);
    ASSERT_EQ(a.bestParams.size(), b.bestParams.size());
    for (std::size_t i = 0; i < a.bestParams.size(); ++i)
        EXPECT_EQ(a.bestParams[i], b.bestParams[i]) << "param " << i;
    EXPECT_EQ(a.finalEnergy, b.finalEnergy);
}

// ---------------------------------------------------------------- json

TEST(Json, ParsesTheBasicShapes)
{
    const JsonValue v = JsonValue::parse(
        R"({"a": 1, "b": [true, null, "x\nA"], "c": -2.5e-3})");
    EXPECT_EQ(v.at("a").asInt(), 1);
    const auto &b = v.at("b").asArray();
    ASSERT_EQ(b.size(), 3u);
    EXPECT_TRUE(b[0].asBool());
    EXPECT_TRUE(b[1].isNull());
    EXPECT_EQ(b[2].asString(), "x\nA");
    EXPECT_DOUBLE_EQ(v.at("c").asDouble(), -2.5e-3);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, IntegersRoundTripExactlyBeyondDoublePrecision)
{
    // 2^53 + 1 is not representable as a double; the store must keep
    // it exact (seeds and shot budgets live here).
    const std::int64_t big = (std::int64_t{1} << 53) + 1;
    const std::uint64_t huge = 18446744073709551615ull;
    JsonValue obj = JsonValue::object();
    obj.set("big", JsonValue(big));
    obj.set("huge", JsonValue(huge));
    const JsonValue back = JsonValue::parse(obj.dump());
    EXPECT_EQ(back.at("big").asInt(), big);
    EXPECT_EQ(back.at("huge").asUint(), huge);
}

TEST(Json, DoublesRoundTripBitForBit)
{
    const std::vector<double> values = {0.1,    1.0 / 3.0, 1e-300,
                                        -2.5e17, 6.02214076e23,
                                        -0.0,   1.0000000000000002};
    for (const double v : values) {
        JsonValue arr = JsonValue::array();
        arr.push_back(JsonValue(v));
        const double back =
            JsonValue::parse(arr.dump()).asArray()[0].asDouble();
        EXPECT_EQ(back, v);
        // Bit-for-bit, not just ==: distinguishes -0.0 from 0.0.
        EXPECT_EQ(std::signbit(back), std::signbit(v));
    }
}

TEST(Json, RejectsPathologicalNestingInsteadOfOverflowing)
{
    // 200k open brackets must throw the documented error, not blow
    // the parser's stack.
    const std::string deep(200000, '[');
    EXPECT_THROW(JsonValue::parse(deep + std::string(200000, ']')),
                 std::runtime_error);
    // Reasonable nesting still parses.
    EXPECT_NO_THROW(JsonValue::parse(std::string(100, '[')
                                     + std::string(100, ']')));
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("1 2"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("\"unterminated"),
                 std::runtime_error);
    EXPECT_THROW(JsonValue::parse("nul"), std::runtime_error);
}

TEST(Json, DumpIsDeterministicAndFingerprintStable)
{
    const auto build = [] {
        JsonValue obj = JsonValue::object();
        obj.set("z", JsonValue("last"));
        obj.set("a", JsonValue(std::int64_t{1}));
        return obj;
    };
    EXPECT_EQ(build().dump(), build().dump());
    EXPECT_EQ(jsonFingerprint(build()), jsonFingerprint(build()));
    JsonValue other = build();
    other.set("a", JsonValue(std::int64_t{2}));
    EXPECT_NE(jsonFingerprint(build()), jsonFingerprint(other));
}

// ------------------------------------------------- thread-pool env var

TEST(ThreadPoolEnv, HardenedParsing)
{
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t fallback = hw > 0 ? hw : 1;

    const auto with_env = [&](const char *value) {
        ::setenv("TREEVQA_NUM_THREADS", value, 1);
        const std::size_t n = defaultThreadCount();
        ::unsetenv("TREEVQA_NUM_THREADS");
        return n;
    };

    EXPECT_EQ(with_env("7"), 7u);
    EXPECT_EQ(with_env(" 3 "), 3u);
    EXPECT_EQ(with_env("abc"), fallback);
    EXPECT_EQ(with_env("4x"), fallback);
    EXPECT_EQ(with_env("2.5"), fallback);
    EXPECT_EQ(with_env(""), fallback);
    EXPECT_EQ(with_env("0"), fallback);
    EXPECT_EQ(with_env("-3"), fallback);
    EXPECT_EQ(with_env("1000000"), 512u);
    EXPECT_EQ(with_env("99999999999999999999"), 512u);
    ::unsetenv("TREEVQA_NUM_THREADS");
}

// ------------------------------------------- optimizer state round-trip

TEST(OptimizerState, SaveLoadContinuationIsBitIdentical)
{
    // For every shipped optimizer: run a prefix, snapshot, continue
    // both the original and a restored fresh instance, and require
    // identical iterates and losses — the foundation of checkpoint
    // resume.
    const std::vector<double> target = {0.7, -0.3, 0.4};
    const BatchObjective quadratic =
        [&](const std::vector<std::vector<double>> &thetas) {
            std::vector<double> losses;
            for (const auto &theta : thetas) {
                double loss = 0.0;
                for (std::size_t i = 0; i < theta.size(); ++i)
                    loss += (theta[i] - target[i])
                          * (theta[i] - target[i]);
                losses.push_back(loss);
            }
            return losses;
        };

    for (const std::string &name :
         {"spsa", "cobyla", "nelder_mead", "implicit_filtering"}) {
        ScenarioSpec spec;
        spec.optimizer = name;
        spec.seed = 1234;

        auto original = makeScenarioOptimizer(spec);
        original->reset({0.0, 0.0, 0.0});
        for (int k = 0; k < 4; ++k)
            original->stepBatch(quadratic);

        const JsonValue snapshot = original->saveState();
        // The snapshot survives serialization to text and back.
        const JsonValue restored_snapshot =
            JsonValue::parse(snapshot.dump());

        auto restored = makeScenarioOptimizer(spec);
        restored->loadState(restored_snapshot);
        EXPECT_EQ(restored->iteration(), original->iteration()) << name;

        for (int k = 0; k < 6; ++k) {
            const double loss_a = original->stepBatch(quadratic);
            const double loss_b = restored->stepBatch(quadratic);
            EXPECT_EQ(loss_a, loss_b) << name << " step " << k;
            const auto &xa = original->params();
            const auto &xb = restored->params();
            ASSERT_EQ(xa.size(), xb.size());
            for (std::size_t i = 0; i < xa.size(); ++i)
                EXPECT_EQ(xa[i], xb[i]) << name << " step " << k;
        }
    }
}

TEST(OptimizerState, LoadRejectsWrongOptimizer)
{
    ScenarioSpec spsa_spec;
    spsa_spec.optimizer = "spsa";
    auto spsa = makeScenarioOptimizer(spsa_spec);
    spsa->reset({0.0, 0.0});
    const JsonValue snapshot = spsa->saveState();

    ScenarioSpec cobyla_spec;
    cobyla_spec.optimizer = "cobyla";
    auto cobyla = makeScenarioOptimizer(cobyla_spec);
    EXPECT_THROW(cobyla->loadState(snapshot), std::runtime_error);
}

// ------------------------------------------------ spec + sweep expansion

TEST(ScenarioSpec, JsonRoundTripIsAFixedPoint)
{
    for (const std::string &opt :
         {"spsa", "cobyla", "nelder_mead", "implicit_filtering"}) {
        ScenarioSpec spec = tinySpec("roundtrip", 1.25);
        spec.optimizer = opt;
        spec.engine.backendName = "paulprop";
        spec.engine.propConfig.maxWeight = 5;
        spec.shotBudget = (1ull << 62);
        const JsonValue serialized = scenarioToJson(spec);
        const ScenarioSpec restored = scenarioFromJson(serialized);
        EXPECT_EQ(scenarioToJson(restored).dump(), serialized.dump())
            << opt;
        EXPECT_EQ(scenarioFingerprint(restored),
                  scenarioFingerprint(spec))
            << opt;
    }
}

TEST(ScenarioSpec, RejectsUnknownNamesAndKeys)
{
    JsonValue doc = JsonValue::object();
    doc.set("problem", JsonValue("ising3d"));
    EXPECT_THROW(scenarioFromJson(doc), std::invalid_argument);

    JsonValue typo = JsonValue::object();
    typo.set("problme", JsonValue("tfim"));
    EXPECT_THROW(scenarioFromJson(typo), std::invalid_argument);

    JsonValue bad_opt = JsonValue::object();
    bad_opt.set("optimizer", JsonValue("adam"));
    EXPECT_THROW(scenarioFromJson(bad_opt), std::invalid_argument);

    JsonValue bad_backend = JsonValue::object();
    JsonValue engine = JsonValue::object();
    engine.set("backend", JsonValue("gpu-someday"));
    bad_backend.set("engine", std::move(engine));
    EXPECT_THROW(scenarioFromJson(bad_backend), std::invalid_argument);

    // Typo'd keys nested inside the optimizer/engine blocks are
    // rejected too, not silently ignored.
    JsonValue bad_hyper = JsonValue::object();
    JsonValue spsa = JsonValue::object();
    spsa.set("name", JsonValue("spsa"));
    spsa.set("stepNorm", JsonValue(0.3)); // should be maxStepNorm
    bad_hyper.set("optimizer", std::move(spsa));
    EXPECT_THROW(scenarioFromJson(bad_hyper), std::invalid_argument);

    JsonValue bad_engine_key = JsonValue::object();
    JsonValue engine_typo = JsonValue::object();
    engine_typo.set("shotsPerTem", JsonValue(std::int64_t{1024}));
    bad_engine_key.set("engine", std::move(engine_typo));
    EXPECT_THROW(scenarioFromJson(bad_engine_key),
                 std::invalid_argument);
}

TEST(ScenarioSpec, SweepExpandsTheCrossProductDeterministically)
{
    JsonValue request = JsonValue::object();
    request.set("name", JsonValue("grid"));
    request.set("problem", JsonValue("tfim"));
    request.set("size", JsonValue(std::int64_t{4}));
    JsonValue sweep = JsonValue::object();
    JsonValue fields = JsonValue::array();
    fields.push_back(JsonValue(0.5));
    fields.push_back(JsonValue(1.0));
    fields.push_back(JsonValue(1.5));
    sweep.set("field", std::move(fields));
    JsonValue seeds = JsonValue::array();
    seeds.push_back(JsonValue(std::uint64_t{1}));
    seeds.push_back(JsonValue(std::uint64_t{2}));
    sweep.set("seed", std::move(seeds));
    request.set("sweep", std::move(sweep));

    const std::vector<ScenarioSpec> specs = expandScenarios(request);
    ASSERT_EQ(specs.size(), 6u);
    // Last sweep key varies fastest; names encode the assignment.
    EXPECT_EQ(specs[0].name, "grid/field=0.5/seed=1");
    EXPECT_EQ(specs[1].name, "grid/field=0.5/seed=2");
    EXPECT_EQ(specs[2].name, "grid/field=1.0/seed=1");
    EXPECT_EQ(specs[5].name, "grid/field=1.5/seed=2");
    EXPECT_EQ(specs[2].field, 1.0);
    EXPECT_EQ(specs[2].seed, 1u);

    // Every expanded spec has a distinct fingerprint.
    for (std::size_t i = 0; i < specs.size(); ++i)
        for (std::size_t j = i + 1; j < specs.size(); ++j)
            EXPECT_NE(scenarioFingerprint(specs[i]),
                      scenarioFingerprint(specs[j]));

    // An array request concatenates expansions.
    JsonValue list = JsonValue::array();
    list.push_back(request);
    JsonValue single = JsonValue::object();
    single.set("name", JsonValue("solo"));
    list.push_back(std::move(single));
    EXPECT_EQ(expandScenarios(list).size(), 7u);
}

// --------------------------------------------- scheduler determinism

TEST(JobScheduler, SweepIsBitIdenticalAtAnyPoolSize)
{
    // A 3-scenario sweep must produce byte-identical per-job energy
    // records whether jobs run serially or share 4 lanes — jobs
    // derive every stream from their spec, never from scheduling.
    const std::vector<ScenarioSpec> specs = {tinySpec("a", 0.6),
                                             tinySpec("b", 1.0),
                                             tinySpec("c", 1.4)};

    ThreadPool::global().resize(1);
    const SweepResult serial = JobScheduler().run(specs);
    ThreadPool::global().resize(4);
    const SweepResult pooled = JobScheduler().run(specs);
    ThreadPool::global().resize(0);

    ASSERT_EQ(serial.jobs.size(), 3u);
    ASSERT_EQ(pooled.jobs.size(), 3u);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_TRUE(serial.jobs[i].completed);
        expectJobsBitIdentical(serial.jobs[i], pooled.jobs[i]);
    }
    // Distinct scenarios reached distinct energies (the sweep did
    // something).
    EXPECT_NE(serial.jobs[0].finalEnergy, serial.jobs[1].finalEnergy);
}

TEST(JobScheduler, RejectsDuplicateSpecs)
{
    const std::vector<ScenarioSpec> specs = {tinySpec("same", 1.0),
                                             tinySpec("same", 1.0)};
    EXPECT_THROW(JobScheduler().run(specs), std::invalid_argument);
}

// ------------------------------------------------- checkpoint / resume

TEST(ScenarioRunner, KillAndResumeReachesIdenticalEnergies)
{
    const std::filesystem::path dir = scratchDir("resume");
    ScenarioSpec spec = tinySpec("resume-me", 0.9, 14);
    spec.checkpointInterval = 4;

    // Uninterrupted reference.
    const JobResult reference = runScenario(spec);
    ASSERT_TRUE(reference.completed);
    EXPECT_FALSE(reference.resumed);
    EXPECT_EQ(reference.iterations, 14);

    // Killed run: SIGKILLed as it starts the second checkpoint write
    // (iteration 8). The last durable checkpoint is at iteration 4,
    // so iterations 5-8 are lost and re-executed on resume.
    ScenarioRunOptions interrupted;
    std::filesystem::create_directories(sweepCheckpointDir(dir.string()));
    interrupted.checkpointPath =
        sweepCheckpointPath(dir.string(), scenarioFingerprint(spec));
    crashThroughPlan(
        R"({"faults": [{"site": "checkpoint.write", "action": "crash",
        "hit": 2}]})",
        [&] { runScenario(spec, interrupted); });
    const auto peeked = peekCheckpoint(interrupted.checkpointPath);
    ASSERT_TRUE(peeked.has_value());
    EXPECT_EQ(peeked->iteration, 4);

    const auto checkpoints_written = [] {
        return MetricsRegistry::instance().snapshot().counters.at(
            "runner.checkpoints_written");
    };
    const std::uint64_t written_before = checkpoints_written();
    ScenarioRunOptions resume;
    resume.checkpointPath = interrupted.checkpointPath;
    const JobResult resumed = runScenario(spec, resume);
    EXPECT_TRUE(resumed.completed);
    EXPECT_TRUE(resumed.resumed);
    // Resumed from iteration 4: interval checkpoints at 8 and 12.
    EXPECT_EQ(checkpoints_written() - written_before, 2u);

    expectJobsBitIdentical(reference, resumed);
    // The runner keeps a finished job's checkpoint until its caller has
    // made the record durable; retireCheckpoints then retires both
    // generations.
    EXPECT_TRUE(std::filesystem::exists(resume.checkpointPath));
    EXPECT_TRUE(std::filesystem::exists(resume.checkpointPath + ".prev"));
    retireCheckpoints(dir.string(), {resumed});
    EXPECT_TRUE(std::filesystem::is_empty(sweepCheckpointDir(dir.string())));
}

TEST(ScenarioRunner, JobWithoutCheckpointIntervalNeverOpensACheckpoint)
{
    const std::filesystem::path dir = scratchDir("no_interval");
    ScenarioSpec spec = tinySpec("no-interval", 0.8, 6);
    spec.checkpointInterval = 0;
    ScenarioRunOptions options;
    options.checkpointPath = (dir / "job.json").string();
    Counter &read_opens =
        MetricsRegistry::instance().counter("io.read_opens");
    const std::uint64_t before = read_opens.total();
    const JobResult result = runScenario(spec, options);
    EXPECT_TRUE(result.completed);
    EXPECT_FALSE(result.resumed);
    EXPECT_EQ(read_opens.total(), before);
    EXPECT_TRUE(std::filesystem::is_empty(dir));
}

TEST(ScenarioRunner, BindingBudgetStopsAtTheSameIterationOnResume)
{
    const std::filesystem::path dir = scratchDir("budget");
    ScenarioSpec spec = tinySpec("budget", 1.1, 12);
    spec.checkpointInterval = 2;
    spec.computeReference = true;

    // SPSA spends the same shots every iteration: read the cost off an
    // unlimited run, then bind the budget inside iteration 7.
    const JobResult unlimited = runScenario(spec);
    ASSERT_EQ(unlimited.iterations, 12);
    const std::uint64_t per_iteration = unlimited.shotsUsed / 12;
    ASSERT_EQ(unlimited.shotsUsed, 12 * per_iteration);
    spec.shotBudget = 6 * per_iteration + per_iteration / 2;

    // Algorithm 1's rule: step while shots < budget, so the job stops
    // at the first iteration whose shots reach it, on the unlimited
    // run's path.
    const JobResult reference = runScenario(spec);
    ASSERT_TRUE(reference.completed);
    EXPECT_EQ(reference.iterations, 7);
    EXPECT_EQ(reference.shotsUsed, 7 * per_iteration);
    EXPECT_GE(reference.shotsUsed, spec.shotBudget);
    EXPECT_LT(reference.shotsUsed - per_iteration, spec.shotBudget);
    for (std::size_t i = 0; i < reference.trajectory.size(); ++i)
        EXPECT_EQ(reference.trajectory[i], unlimited.trajectory[i]) << i;

    // Killed after the third durable checkpoint (iteration 6), the
    // resumed job runs one iteration and stops where the uninterrupted
    // one did.
    ScenarioRunOptions options;
    options.checkpointPath = (dir / "job.json").string();
    crashThroughPlan(
        R"({"faults": [{"site": "checkpoint.written", "action": "crash",
        "hit": 3}]})",
        [&] { runScenario(spec, options); });
    const auto peeked = peekCheckpoint(options.checkpointPath);
    ASSERT_TRUE(peeked.has_value());
    EXPECT_EQ(peeked->iteration, 6);

    const JobResult resumed = runScenario(spec, options);
    EXPECT_TRUE(resumed.completed);
    EXPECT_TRUE(resumed.resumed);
    expectJobsBitIdentical(reference, resumed);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reference.fidelity),
              std::bit_cast<std::uint64_t>(resumed.fidelity));
}

TEST(ScenarioRunner, MismatchedCheckpointRestartsFresh)
{
    const std::filesystem::path dir = scratchDir("mismatch");
    const std::string path = (dir / "job.json").string();

    // Leave a checkpoint belonging to a *different* spec behind: a
    // graceful stop seals one after the first iteration.
    ScenarioSpec other = tinySpec("other", 1.3, 10);
    ScenarioRunOptions stop;
    stop.checkpointPath = path;
    stop.shouldStop = [] { return true; };
    EXPECT_FALSE(runScenario(other, stop).completed);
    ASSERT_TRUE(std::filesystem::exists(path));

    ScenarioSpec spec = tinySpec("fresh", 0.7, 10);
    ScenarioRunOptions options;
    options.checkpointPath = path;
    const JobResult run = runScenario(spec, options);
    EXPECT_TRUE(run.completed);
    EXPECT_FALSE(run.resumed); // foreign checkpoint was ignored
    expectJobsBitIdentical(run, runScenario(spec));
}

TEST(JobScheduler, StoreResumeSkipsCompletedJobsAndMatchesFreshRun)
{
    const std::filesystem::path fresh_dir = scratchDir("store_fresh");
    const std::filesystem::path killed_dir = scratchDir("store_killed");
    const std::vector<ScenarioSpec> specs = {tinySpec("a", 0.6),
                                             tinySpec("b", 1.0),
                                             tinySpec("c", 1.4)};

    SchedulerConfig fresh_config;
    fresh_config.outDir = fresh_dir.string();
    const SweepResult fresh = JobScheduler(fresh_config).run(specs);
    EXPECT_EQ(fresh.executed, 3u);
    EXPECT_EQ(fresh.skipped, 0u);

    // Kill a second sweep mid-flight. On one lane the jobs run in
    // order: "a" writes checkpoints at 4 and 8 and finishes, then the
    // kill lands right after "b"'s first checkpoint (the third across
    // the sweep), before "c" starts. "a"'s record was still in the
    // group-commit buffer, so the kill costs it: the store is empty,
    // and "a" and "b" keep the newest checkpoints they resume from.
    SchedulerConfig killed_config;
    killed_config.outDir = killed_dir.string();
    crashThroughPlan(
        R"({"faults": [{"site": "checkpoint.written", "action": "crash",
        "hit": 3}]})",
        [&] {
            PoolSizeGuard one_lane(1);
            JobScheduler(killed_config).run(specs);
        });
    JobScheduler killed(killed_config);
    EXPECT_TRUE(ResultStore(killed.resultStorePath()).load().empty());
    const auto a_checkpoint =
        peekCheckpoint(killed.checkpointPathFor(specs[0]));
    const auto b_checkpoint =
        peekCheckpoint(killed.checkpointPathFor(specs[1]));
    ASSERT_TRUE(a_checkpoint.has_value());
    ASSERT_TRUE(b_checkpoint.has_value());
    EXPECT_EQ(a_checkpoint->iteration, 8);
    EXPECT_EQ(b_checkpoint->iteration, 4);

    // Relaunch: "a" and "b" resume from their checkpoints, "c" starts
    // fresh, and all three match the uninterrupted sweep.
    SchedulerConfig resume_config;
    resume_config.outDir = killed_dir.string();
    const SweepResult resumed =
        JobScheduler(resume_config).run(specs);
    EXPECT_EQ(resumed.executed, 3u);
    EXPECT_EQ(resumed.skipped, 0u);
    EXPECT_TRUE(resumed.jobs[0].resumed);
    EXPECT_TRUE(resumed.jobs[1].resumed);
    EXPECT_FALSE(resumed.jobs[2].resumed);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_TRUE(resumed.jobs[i].completed);
        expectJobsBitIdentical(fresh.jobs[i], resumed.jobs[i]);
        EXPECT_FALSE(
            std::filesystem::exists(killed.checkpointPathFor(specs[i])));
    }

    // Relaunch again: everything is in the store now, nothing runs,
    // and the loaded records still carry the same energies.
    const SweepResult skipped =
        JobScheduler(resume_config).run(specs);
    EXPECT_EQ(skipped.executed, 0u);
    EXPECT_EQ(skipped.skipped, 3u);
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectJobsBitIdentical(fresh.jobs[i], skipped.jobs[i]);

    // The two stores' deterministic summaries agree byte-for-byte.
    EXPECT_EQ(sweepSummaryJson(fresh.jobs).dump(2),
              sweepSummaryJson(skipped.jobs).dump(2));
}

TEST(JobScheduler, RerunRetiresTheCheckpointOfARecordedJob)
{
    // A kill between a commit's fsync and its checkpoint retirement
    // leaves a recorded job's checkpoint behind; the rerun that skips
    // the job retires it, and the summary does not change.
    const std::filesystem::path dir = scratchDir("stale_checkpoint");
    const std::vector<ScenarioSpec> specs = {tinySpec("a", 0.6),
                                             tinySpec("b", 1.0)};
    SchedulerConfig config;
    config.outDir = dir.string();
    const std::string summary =
        sweepSummaryJson(JobScheduler(config).run(specs).jobs).dump(2);

    // A real checkpoint of "a": a graceful stop seals one after the
    // first iteration, then a second write rotates it to `.prev`.
    JobScheduler scheduler(config);
    ScenarioRunOptions stop;
    stop.checkpointPath = scheduler.checkpointPathFor(specs[0]);
    stop.shouldStop = [] { return true; };
    EXPECT_FALSE(runScenario(specs[0], stop).completed);
    EXPECT_FALSE(runScenario(specs[0], stop).completed);
    ASSERT_TRUE(std::filesystem::exists(stop.checkpointPath));
    ASSERT_TRUE(std::filesystem::exists(stop.checkpointPath + ".prev"));

    // And the staging copy a kill leaves mid-write. A checkpoint of a
    // job the store does not hold stays.
    const std::string staging = stop.checkpointPath + ".tmp.4242.7";
    writeTextFileAtomic(staging, "{}");
    const std::string unrecorded =
        scheduler.checkpointPathFor(tinySpec("c", 1.4));
    writeTextFileAtomic(unrecorded, "{}");

    const SweepResult rerun = scheduler.run(specs);
    EXPECT_EQ(rerun.executed, 0u);
    EXPECT_EQ(rerun.skipped, 2u);
    EXPECT_FALSE(std::filesystem::exists(stop.checkpointPath));
    EXPECT_FALSE(std::filesystem::exists(stop.checkpointPath + ".prev"));
    EXPECT_FALSE(std::filesystem::exists(staging));
    EXPECT_TRUE(std::filesystem::exists(unrecorded));
    EXPECT_EQ(sweepSummaryJson(rerun.jobs).dump(2), summary);
}

TEST(JobScheduler, RetireCheckpointsSkipsJobsThatNeverCheckpoint)
{
    // A record whose spec has no checkpoint interval cannot own a
    // checkpoint, so its retirement does not even list the directory:
    // a file under its fingerprint stays.
    const std::filesystem::path dir = scratchDir("retire_interval0");
    ScenarioSpec spec = tinySpec("a", 0.6);
    spec.checkpointInterval = 0;
    JobResult record;
    record.spec = spec;
    record.fingerprint = scenarioFingerprint(spec);
    record.completed = true;
    std::filesystem::create_directories(sweepCheckpointDir(dir.string()));
    const std::string path =
        sweepCheckpointPath(dir.string(), record.fingerprint);
    writeTextFileAtomic(path, "{}");
    retireCheckpoints(dir.string(), {record});
    EXPECT_TRUE(std::filesystem::exists(path));

    // The same record with an interval retires it.
    record.spec.checkpointInterval = 4;
    retireCheckpoints(dir.string(), {record});
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(JobScheduler, ThrowingJobKeepsTheRecordsOfFinishedJobs)
{
    // On one lane "a" finishes into the group-commit buffer, then "b"
    // throws at its first checkpoint write. run() rethrows only after
    // committing "a": its record is durable and its checkpoint gone.
    const std::filesystem::path dir = scratchDir("throwing_job");
    const std::vector<ScenarioSpec> specs = {tinySpec("a", 0.6),
                                             tinySpec("b", 1.0),
                                             tinySpec("c", 1.4)};
    SchedulerConfig config;
    config.outDir = dir.string();
    JobScheduler scheduler(config);
    {
        PoolSizeGuard one_lane(1);
        FaultInjection::instance().arm(
            R"({"faults": [{"site": "checkpoint.write",
            "action": "fail-errno", "errno": "EIO", "hit": 3}]})");
        EXPECT_THROW(scheduler.run(specs), std::runtime_error);
        FaultInjection::instance().disarm();
    }
    const std::vector<JobResult> stored =
        ResultStore(scheduler.resultStorePath()).load();
    ASSERT_EQ(stored.size(), 1u);
    expectJobsBitIdentical(stored[0], runScenario(specs[0]));
    EXPECT_FALSE(
        std::filesystem::exists(scheduler.checkpointPathFor(specs[0])));
}

// --------------------------------------------------------- result store

TEST(ResultStore, RoundTripsRecordsAndToleratesTornLines)
{
    const std::filesystem::path dir = scratchDir("store_io");
    ResultStore store((dir / "results.jsonl").string());

    const JobResult a = runScenario(tinySpec("x", 0.8, 6));
    const JobResult b = runScenario(tinySpec("y", 1.2, 6));
    store.append(a);

    // Simulate the torn (newline-less) final line of a killed writer;
    // the next append must seal it rather than merge into it.
    {
        std::ofstream torn(store.path(), std::ios::app);
        torn << "{\"name\": \"torn-rec";
    }
    store.append(b);

    const std::vector<JobResult> loaded = store.load();
    ASSERT_EQ(loaded.size(), 2u);
    expectJobsBitIdentical(a, loaded[0]);
    expectJobsBitIdentical(b, loaded[1]);
    EXPECT_EQ(loaded[0].spec.name, "x");
    EXPECT_EQ(loaded[0].backend, "statevector");
    EXPECT_EQ(loaded[1].spec.name, "y");
    // Record JSON reconstructs the spec losslessly.
    EXPECT_EQ(scenarioToJson(loaded[0].spec).dump(),
              scenarioToJson(a.spec).dump());
}

} // namespace
} // namespace treevqa
