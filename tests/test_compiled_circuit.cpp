/**
 * @file
 * Tests for the compiled execution-plan layer: CompiledCircuit vs
 * eager gate-by-gate application for every gate type, program sharing
 * across ansatz copies, Pauli propagation's pool-size invariance, and
 * SimBackend selection by name.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "circuit/compiled_circuit.h"
#include "circuit/hardware_efficient.h"
#include "common/rng.h"
#include "core/config_io.h"
#include "core/objective.h"
#include "core/sim_backend.h"
#include "ham/spin_chains.h"
#include "sim/expectation.h"

#include "parent_digests.h"
#include "pool_size_guard.h"

namespace treevqa {
namespace {

/** Unfused reference: one kernel call per source instruction. */
Statevector
eagerReference(const Circuit &c, const std::vector<double> &theta,
               std::uint64_t initial_bits = 0)
{
    Statevector ref(c.numQubits());
    ref.setBasisState(initial_bits);
    for (const auto &g : c.gates()) {
        const double angle = (g.paramIndex >= 0)
            ? g.scale * theta[g.paramIndex] + g.offset
            : g.offset;
        switch (g.op) {
          case GateOp::Rx: ref.applyRx(g.q0, angle); break;
          case GateOp::Ry: ref.applyRy(g.q0, angle); break;
          case GateOp::Rz: ref.applyRz(g.q0, angle); break;
          case GateOp::H: ref.applyH(g.q0); break;
          case GateOp::X: ref.applyX(g.q0); break;
          case GateOp::S: ref.applyS(g.q0); break;
          case GateOp::Sdg: ref.applySdg(g.q0); break;
          case GateOp::Cx: ref.applyCx(g.q0, g.q1); break;
          case GateOp::Cz: ref.applyCz(g.q0, g.q1); break;
          case GateOp::Rzz: ref.applyRzz(g.q0, g.q1, angle); break;
          case GateOp::Rxx: ref.applyRxx(g.q0, g.q1, angle); break;
          case GateOp::Ryy: ref.applyRyy(g.q0, g.q1, angle); break;
        }
    }
    return ref;
}

void
expectStatesNear(const Statevector &a, const Statevector &b, double tol)
{
    ASSERT_EQ(a.dim(), b.dim());
    for (std::size_t i = 0; i < a.dim(); ++i)
        EXPECT_NEAR(std::abs(a.amplitudes()[i] - b.amplitudes()[i]),
                    0.0, tol)
            << "amplitude " << i;
}

/** Compiled execution vs the eager unfused reference at 1e-12. */
void
checkCompiledMatchesEager(const Circuit &c,
                          const std::vector<double> &theta)
{
    const CompiledCircuit program(c);
    Statevector compiled(c.numQubits());
    program.execute(compiled, theta, 0);
    const Statevector ref = eagerReference(c, theta);
    expectStatesNear(compiled, ref, 1e-12);
}

TEST(CompiledCircuit, EveryGateTypeMatchesEager)
{
    // One circuit per gate type, parameter-bound where supported, with
    // surrounding rotations so the fused run is non-trivial.
    struct Case
    {
        const char *name;
        std::function<void(Circuit &, int)> emit;
    };
    const std::vector<Case> cases = {
        {"rx", [](Circuit &c, int p) { c.rxParam(0, p, 1.3); }},
        {"ry", [](Circuit &c, int p) { c.ryParam(1, p, -0.7); }},
        {"rz", [](Circuit &c, int p) { c.rzParam(2, p, 2.1); }},
        {"h", [](Circuit &c, int) { c.h(0); }},
        {"x", [](Circuit &c, int) { c.x(1); }},
        {"s", [](Circuit &c, int) { c.s(2); }},
        {"sdg", [](Circuit &c, int) { c.sdg(0); }},
        {"cx", [](Circuit &c, int) { c.cx(0, 2); }},
        {"cz", [](Circuit &c, int) { c.cz(1, 2); }},
        {"rzz", [](Circuit &c, int p) { c.rzzParam(0, 1, p, 0.9); }},
        {"rxx", [](Circuit &c, int p) { c.rxxParam(1, 2, p, 1.1); }},
        {"ryy", [](Circuit &c, int p) { c.ryyParam(0, 2, p, -1.4); }},
    };
    for (const Case &test_case : cases) {
        Circuit c(3);
        const int p = c.addParam();
        // Rotations before and after so fusion runs form around the
        // gate under test.
        for (int q = 0; q < 3; ++q) {
            c.ry(q, 0.3 + q);
            c.rz(q, -0.2 * (q + 1));
        }
        test_case.emit(c, p);
        for (int q = 0; q < 3; ++q)
            c.rx(q, 0.1 * (q + 1));
        checkCompiledMatchesEager(c, {0.83});
    }
}

TEST(CompiledCircuit, RandomMixedCircuitsMatchEager)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        checkCompiledMatchesEager(randomMixedCircuit(seed), {0.41, -1.27});
}

/** Digests of every digest case's state under each binding, prepared
 * into one reused (initially dirty) buffer per circuit. */
DigestRows
stateDigests()
{
    DigestRows rows;
    for (const DigestCircuit &c : digestCircuits()) {
        Statevector state(c.ansatz.numQubits());
        for (Complex &a : state.amplitudes())
            a = Complex(0.5, -0.25);
        for (const auto &[angles, theta] :
             digestAngles(c.ansatz.numParams(), 17)) {
            c.ansatz.prepareInto(state, theta);
            ValueDigest digest;
            for (const Complex &a : state.amplitudes())
                digest.add(a);
            rows.emplace_back(c.name + "/" + angles, digest.value());
        }
    }
    return rows;
}

/** stateDigests() on the parent of the product-state prefix, built
 * with FMA. */
const PinnedDigest kParentStateDigestsFused[] = {
    {"hea2_b0/rand", 0x8807156f7fe13f62ull},
    {"hea2_b0/zero", 0x59caaceb145eceb8ull},
    {"hea2_b0/pi", 0xc5d5de896baeb0e2ull},
    {"hea2_b1/rand", 0xc895975b222a54a3ull},
    {"hea2_b1/zero", 0x68f2f7260a273af8ull},
    {"hea2_b1/pi", 0x26343eeb17f987e3ull},
    {"hea4_b0/rand", 0x99d38f33bb96c5fcull},
    {"hea4_b0/zero", 0x510f9cf398f0f6b8ull},
    {"hea4_b0/pi", 0xfc2534cd48e2bbdfull},
    {"hea4_b5/rand", 0xc78d6aedbe69e826ull},
    {"hea4_b5/zero", 0x3a89fa1c715c9578ull},
    {"hea4_b5/pi", 0x4fc08d8e825c127full},
    {"hea6_b0/rand", 0x7b52ec3f5efa4fbaull},
    {"hea6_b0/zero", 0x3bc8cec04fe996b8ull},
    {"hea6_b0/pi", 0x92b90fdef51123dbull},
    {"hea6_b21/rand", 0x414f33e5ab40d586ull},
    {"hea6_b21/zero", 0x2193053f9c98f1f8ull},
    {"hea6_b21/pi", 0x0ce2eb2eb5c29461ull},
    {"hea8_b0/rand", 0x5f09057c65a61958ull},
    {"hea8_b0/zero", 0xfb84724476cc16b8ull},
    {"hea8_b0/pi", 0x9e3a38a95788d5afull},
    {"hea8_b85/rand", 0x7aa29807255fcf57ull},
    {"hea8_b85/zero", 0x541e353f4a986978ull},
    {"hea8_b85/pi", 0x65beb9cdd79d0cbdull},
    {"hea16_b0/rand", 0x380274d9fcdd3807ull},
    {"hea16_b0/zero", 0xef6813fd8b9e16b8ull},
    {"hea16_b0/pi", 0x176d0b567a5bf542ull},
    {"hea16_b21845/rand", 0x3967813c575cf918ull},
    {"hea16_b21845/zero", 0xe59410cbf2a9a978ull},
    {"hea16_b21845/pi", 0xde6028c28c057d55ull},
    {"maqaoa6/rand", 0xa711e40aa1babc8dull},
    {"maqaoa6/zero", 0x31ae5b7407145125ull},
    {"maqaoa6/pi", 0x10db9581265c96adull},
    {"uccsd_min/rand", 0x009355863f68f52full},
    {"uccsd_min/zero", 0x7ad501fa1980eab7ull},
    {"uccsd_min/pi", 0xda2b548d61b7daf9ull},
    {"mixed1/rand", 0x76d1a3d82e87dd87ull},
    {"mixed1/zero", 0x1b72b575916af590ull},
    {"mixed1/pi", 0x701514b57c73a9a3ull},
    {"mixed2/rand", 0x1393c94281fa6f7aull},
    {"mixed2/zero", 0x6d20fffed518f40eull},
    {"mixed2/pi", 0xb3bdf3f5095947caull},
    {"mixed3/rand", 0x1ba253f56dd639a3ull},
    {"mixed3/zero", 0xe5a653f6da58afb8ull},
    {"mixed3/pi", 0x745b486d8ee52204ull},
    {"mixed4/rand", 0x14d294763ab66bc4ull},
    {"mixed4/zero", 0x9b65818db4948a26ull},
    {"mixed4/pi", 0xfdac0e4c31b12587ull},
    {"mixed5/rand", 0xc3b8cbdf98ee3583ull},
    {"mixed5/zero", 0x6dd7138452866661ull},
    {"mixed5/pi", 0x529f1511654d3b73ull},
    {"mixed6/rand", 0xabe3bbc6d0db1370ull},
    {"mixed6/zero", 0xdac06ad0cbd8e5d7ull},
    {"mixed6/pi", 0xc0227a37befd299eull},
};

/** The same, built without FMA. */
const PinnedDigest kParentStateDigestsUnfused[] = {
    {"hea2_b0/rand", 0xf3a2da13ffd7f5b4ull},
    {"hea2_b0/zero", 0x59caaceb145eceb8ull},
    {"hea2_b0/pi", 0x91de0246738c9e61ull},
    {"hea2_b1/rand", 0x5459fb8957d0cd49ull},
    {"hea2_b1/zero", 0x68f2f7260a273af8ull},
    {"hea2_b1/pi", 0xba1fa49dfaa456d9ull},
    {"hea4_b0/rand", 0x644be81901511ee4ull},
    {"hea4_b0/zero", 0x510f9cf398f0f6b8ull},
    {"hea4_b0/pi", 0x387d42222ae7fd00ull},
    {"hea4_b5/rand", 0xf4edaa7d96ddee5full},
    {"hea4_b5/zero", 0x3a89fa1c715c9578ull},
    {"hea4_b5/pi", 0x1e6f00a873db1297ull},
    {"hea6_b0/rand", 0x1e663d88ff995817ull},
    {"hea6_b0/zero", 0x3bc8cec04fe996b8ull},
    {"hea6_b0/pi", 0x851c772af9f2aa02ull},
    {"hea6_b21/rand", 0xa6a61f52f382d9d7ull},
    {"hea6_b21/zero", 0x2193053f9c98f1f8ull},
    {"hea6_b21/pi", 0xf0c8f6d135904164ull},
    {"hea8_b0/rand", 0x5aa1db17f1e6a698ull},
    {"hea8_b0/zero", 0xfb84724476cc16b8ull},
    {"hea8_b0/pi", 0x31a79094a75618bdull},
    {"hea8_b85/rand", 0x62b907a13074a0bdull},
    {"hea8_b85/zero", 0x541e353f4a986978ull},
    {"hea8_b85/pi", 0xa20c68e1a8a1a617ull},
    {"hea16_b0/rand", 0x35681076840a4e39ull},
    {"hea16_b0/zero", 0xef6813fd8b9e16b8ull},
    {"hea16_b0/pi", 0x1caf5a1eb3e3fb8dull},
    {"hea16_b21845/rand", 0x0e1ad75b2dde3df6ull},
    {"hea16_b21845/zero", 0xe59410cbf2a9a978ull},
    {"hea16_b21845/pi", 0xfa15f4a1366b1546ull},
    {"maqaoa6/rand", 0x10d87fcd0f333165ull},
    {"maqaoa6/zero", 0x31ae5b7407145125ull},
    {"maqaoa6/pi", 0x1bdcfc71443d1595ull},
    {"uccsd_min/rand", 0x8c98c24e91e70a24ull},
    {"uccsd_min/zero", 0x7ad501fa1980eab7ull},
    {"uccsd_min/pi", 0x7e7249772329f1eeull},
    {"mixed1/rand", 0xb5cecf0a7e8961c9ull},
    {"mixed1/zero", 0x34df6b245c9f1bdaull},
    {"mixed1/pi", 0xb1dd57a5947718c1ull},
    {"mixed2/rand", 0xf069d550074a01beull},
    {"mixed2/zero", 0xcd7bae7167a2775full},
    {"mixed2/pi", 0xce6b0ef2a5d8b86aull},
    {"mixed3/rand", 0xef1fd1133751fc94ull},
    {"mixed3/zero", 0x353bcefff3454e95ull},
    {"mixed3/pi", 0xb00e6df2842c6fb3ull},
    {"mixed4/rand", 0xe708ac6f0e059269ull},
    {"mixed4/zero", 0x41677837ad3352feull},
    {"mixed4/pi", 0xbd3855c6e25352c2ull},
    {"mixed5/rand", 0xd4c744a5f424d96aull},
    {"mixed5/zero", 0x517d01a215c5eec8ull},
    {"mixed5/pi", 0xfbab4cf070267612ull},
    {"mixed6/rand", 0x57bca56adfded1e2ull},
    {"mixed6/zero", 0x15ef1b052896c162ull},
    {"mixed6/pi", 0x8497c8282ba65da4ull},
};

TEST(CompiledCircuit, ExecuteMatchesParentDigests)
{
    expectPinnedDigests(stateDigests, kParentStateDigestsFused,
                        kParentStateDigestsUnfused);
}

TEST(CompiledCircuit, ProductPrefixMatchesRunningEveryOp)
{
    // The prefix is built by doubling from the basis state; apply()
    // runs the same table op by op. Cover a prefix in scrambled qubit
    // order behind Cx/Cz, a fixed diagonal prefix run, a qubit only a
    // Cx touches and one no op touches (their initial bits must
    // survive), and a prefix cut short by an Rzz.
    Circuit c(6);
    const int p = c.addParam();
    c.ryParam(3, p, 0.7);
    c.cz(3, 4);
    c.rxParam(0, p, -1.1);
    c.cx(3, 0);
    c.rz(2, 0.4);
    c.cx(1, 2);
    c.rzz(0, 3, 0.9);
    c.h(4);
    c.ryParam(2, p);
    c.cx(2, 4);
    const CompiledCircuit program(c);
    EXPECT_EQ(program.prefixOps(), 3u);
    const auto fold = [](const Statevector &s) {
        std::vector<double> parts;
        for (const Complex &a : s.amplitudes()) {
            parts.push_back(a.real() + 0.0);
            parts.push_back(a.imag() + 0.0);
        }
        return parts;
    };
    for (const std::uint64_t bits : {0u, 0b000010u, 0b110110u, 0b111111u})
        for (const double theta : {0.0, 0.83, 3.14159}) {
            Statevector built(6);
            for (Complex &a : built.amplitudes())
                a = Complex(0.25, -0.5); // stale contents
            program.execute(built, {theta}, bits);
            Statevector stepped(6);
            stepped.setBasisState(bits);
            program.apply(stepped, {theta});
            EXPECT_EQ(fold(built), fold(stepped))
                << "bits " << bits << " theta " << theta;
        }
    const Ansatz hea = makeHardwareEfficientAnsatz(6, 2, 0);
    EXPECT_EQ(hea.compiled()->prefixOps(), 6u);
}

TEST(CompiledCircuit, FusionCompressesSingleQubitRuns)
{
    // A rotation layer plus entangler compiles to far fewer ops than
    // source gates.
    const Ansatz ansatz = makeHardwareEfficientAnsatz(4, 2, 0);
    const CompiledCircuit &program = *ansatz.compiled();
    EXPECT_LT(program.numOps(), ansatz.circuit().numGates());
}

TEST(CompiledCircuit, AnsatzCopiesShareOneProgram)
{
    const Ansatz a = makeHardwareEfficientAnsatz(5, 2, 0b00101);
    ASSERT_TRUE(a.compiled());

    // Re-binding initial bits shares the program.
    const Ansatz c = a.withInitialBits(0b111);
    EXPECT_EQ(c.compiled().get(), a.compiled().get());
}

TEST(PauliPropagation, PoolSizeInvariant)
{
    const int n = 6;
    const auto fam = tfimFamily(n, 0.7, 1.3, 3);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(n, 2, 0);
    Rng rng(29);
    std::vector<double> theta(ansatz.numParams());
    for (auto &t : theta)
        t = rng.uniform(-1.5, 1.5);

    const PauliPropagator prop(ansatz.compiled());
    std::vector<std::vector<double>> runs;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        PoolSizeGuard guard(threads);
        runs.push_back(prop.expectations(theta, fam, 0));
    }
    for (std::size_t r = 1; r < runs.size(); ++r)
        EXPECT_EQ(runs[r], runs[0]);
}

TEST(PauliPropagation, AgreesWithStatevector)
{
    const int n = 5;
    const auto fam = tfimFamily(n, 0.5, 1.5, 2);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(n, 1, 0);
    Rng rng(31);
    std::vector<double> theta(ansatz.numParams());
    for (auto &t : theta)
        t = rng.uniform(-1, 1);

    const Statevector state = ansatz.prepare(theta);
    const PauliPropagator prop(ansatz.compiled());
    const std::vector<double> out = prop.expectations(theta, fam, 0);
    for (std::size_t k = 0; k < fam.size(); ++k)
        EXPECT_NEAR(out[k], expectation(state, fam[k]), 1e-10)
            << "observable " << k;
}

TEST(SimBackend, SelectionByName)
{
    const auto fam = tfimFamily(4, 0.5, 1.5, 2);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(4, 1, 0);

    const ClusterObjective by_default(fam, ansatz, EngineConfig{});
    EXPECT_EQ(by_default.backendName(), "statevector");

    EngineConfig named;
    named.backendName = "paulprop";
    named.propConfig.maxWeight = 64;
    named.propConfig.coefThreshold = 0.0;
    const ClusterObjective by_name(fam, ansatz, named);
    EXPECT_EQ(by_name.backendName(), "paulprop");

    EXPECT_EQ(simBackendNames().size(), 2u);

    EngineConfig bogus;
    bogus.backendName = "tensor-network";
    EXPECT_THROW(ClusterObjective(fam, ansatz, bogus),
                 std::invalid_argument);
}

TEST(SimBackend, EngineConfigJsonRoundTripIsLossless)
{
    // spec -> EngineConfig -> serialized spec must be lossless for
    // every registered backend, including all numeric knobs.
    for (const std::string &name : simBackendNames()) {
        EngineConfig config;
        config.backendName = name;
        config.shotsPerTerm = 12345;
        config.injectShotNoise = false;
        config.noise = NoiseModel(0.995, 0.98, "test-device");
        config.propConfig.maxWeight = 5;
        config.propConfig.coefThreshold = 3.25e-9;
        config.propConfig.maxTerms = (1ull << 53) + 1; // > 2^53

        const JsonValue serialized = engineConfigToJson(config);
        const EngineConfig restored = engineConfigFromJson(serialized);
        EXPECT_EQ(restored.backendName, name);
        EXPECT_EQ(restored.shotsPerTerm, config.shotsPerTerm);
        EXPECT_EQ(restored.injectShotNoise, config.injectShotNoise);
        EXPECT_EQ(restored.noise.gateFidelity(),
                  config.noise.gateFidelity());
        EXPECT_EQ(restored.noise.readoutFidelity(),
                  config.noise.readoutFidelity());
        EXPECT_EQ(restored.noise.name(), config.noise.name());
        EXPECT_EQ(restored.propConfig.maxWeight,
                  config.propConfig.maxWeight);
        EXPECT_EQ(restored.propConfig.coefThreshold,
                  config.propConfig.coefThreshold);
        EXPECT_EQ(restored.propConfig.maxTerms,
                  config.propConfig.maxTerms);

        // Round-trip fixed point: re-serializing the restored config
        // reproduces the document byte-for-byte.
        EXPECT_EQ(engineConfigToJson(restored).dump(),
                  serialized.dump());
    }
}

TEST(SimBackend, EngineConfigJsonUnknownBackendFailsClearly)
{
    JsonValue doc = JsonValue::object();
    doc.set("backend", JsonValue("tensor-network"));
    try {
        engineConfigFromJson(doc);
        FAIL() << "unknown backend must throw";
    } catch (const std::invalid_argument &e) {
        const std::string message = e.what();
        // The error names the offender and the valid choices.
        EXPECT_NE(message.find("tensor-network"), std::string::npos)
            << message;
        EXPECT_NE(message.find("statevector"), std::string::npos)
            << message;
        EXPECT_NE(message.find("paulprop"), std::string::npos)
            << message;
    }
}

TEST(SimBackend, EngineConfigJsonRejectsUnknownPropConfigKey)
{
    JsonValue prop = JsonValue::object();
    prop.set("shards", JsonValue(std::int64_t{4}));
    JsonValue doc = JsonValue::object();
    doc.set("propConfig", std::move(prop));
    EXPECT_THROW(engineConfigFromJson(doc), std::invalid_argument);
}

TEST(SimBackend, NamedBackendsAgreeOnExactEnergies)
{
    const auto fam = tfimFamily(4, 0.5, 1.5, 3);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(4, 1, 0b0011);
    Rng rng(37);
    std::vector<double> theta(ansatz.numParams());
    for (auto &t : theta)
        t = rng.uniform(-1, 1);

    EngineConfig sv;
    sv.backendName = "statevector";
    EngineConfig pp;
    pp.backendName = "paulprop";
    pp.propConfig.maxWeight = 64;
    pp.propConfig.coefThreshold = 0.0;

    const ClusterObjective a(fam, ansatz, sv);
    const ClusterObjective b(fam, ansatz, pp);
    const auto ea = a.exactTaskEnergies(theta);
    const auto eb = b.exactTaskEnergies(theta);
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i)
        EXPECT_NEAR(ea[i], eb[i], 1e-8) << "task " << i;
    EXPECT_NEAR(a.exactMixedEnergy(theta), b.exactMixedEnergy(theta),
                1e-8);
}

} // namespace
} // namespace treevqa
