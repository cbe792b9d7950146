/**
 * @file
 * Tests for the compiled execution-plan layer: CompiledCircuit vs
 * eager gate-by-gate application for every gate type, program sharing
 * across ansatz copies, Pauli propagation's pool-size invariance, and
 * SimBackend selection by name.
 */

#include <gtest/gtest.h>

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
    program.execute(compiled, theta);
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
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed * 7919);
        const int n = 5;
        Circuit c(n);
        const int p0 = c.addParam();
        const int p1 = c.addParam();
        for (int g = 0; g < 150; ++g) {
            const int q = static_cast<int>(rng.uniformInt(n));
            const int r =
                static_cast<int>((q + 1 + rng.uniformInt(n - 1)) % n);
            switch (rng.uniformInt(14)) {
              case 0: c.rx(q, rng.uniform(-3, 3)); break;
              case 1: c.ry(q, rng.uniform(-3, 3)); break;
              case 2: c.rz(q, rng.uniform(-3, 3)); break;
              case 3: c.h(q); break;
              case 4: c.x(q); break;
              case 5: c.s(q); break;
              case 6: c.sdg(q); break;
              case 7: c.cx(q, r); break;
              case 8: c.cz(q, r); break;
              case 9: c.rzz(q, r, rng.uniform(-3, 3)); break;
              case 10: c.rxx(q, r, rng.uniform(-3, 3)); break;
              case 11: c.ryy(q, r, rng.uniform(-3, 3)); break;
              case 12: c.rxParam(q, p0, rng.uniform(-1, 1)); break;
              default: c.rzzParam(q, r, p1, rng.uniform(-1, 1)); break;
            }
        }
        checkCompiledMatchesEager(c, {0.41, -1.27});
    }
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
