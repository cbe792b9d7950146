/**
 * @file
 * ScenarioSpec: the declarative description of one experiment in the
 * scenario-orchestration runtime (src/svc/).
 *
 * A spec names everything a run needs — problem family and size,
 * ansatz, engine configuration (backend by name), optimizer and its
 * hyperparameters, iteration/shot budget, and the seed every random
 * stream of the job derives from. Specs parse from JSON
 * (scenarioFromJson), serialize losslessly back (scenarioToJson), and
 * hash to a stable fingerprint that keys checkpoint files and result
 * records.
 *
 * Sweep expansion: a spec object may carry a "sweep" member mapping
 * field names to value arrays; expandScenarios() fans the cross
 * product out into independent specs (name suffixed with the swept
 * assignments), which is how one request becomes a queue of scheduled
 * jobs.
 *
 * Spec JSON schema (all fields optional unless noted):
 *
 *   {
 *     "name": "tfim-sweep",            // job name (default "scenario")
 *     "problem": "tfim",               // h2|hchain|tfim|xxz|maxcut_ring
 *     "size": 6,                       // sites/atoms/nodes
 *     "bond": 0.74,                    // h2/hchain geometry (angstrom)
 *     "coupling": 1.0,                 // J (tfim/xxz)
 *     "field": 1.0,                    // h (tfim) / delta (xxz)
 *     "ansatz": "hea",                 // hea|uccsd_min|ma_qaoa|qaoa
 *     "layers": 2,
 *     "optimizer": {"name": "spsa", "a": 0.25, ...},
 *     "engine": {"backend": "statevector", "shotsPerTerm": 4096, ...},
 *     "maxIterations": 100,
 *     "shotBudget": 0,                 // 0 = unlimited
 *     "seed": 17,
 *     "checkpointInterval": 25,        // iterations; 0 disables
 *     "computeReference": false,       // solve FCI ground energy
 *     "sweep": {"field": [0.6, 1.0, 1.4]}
 *   }
 *
 * Unknown top-level keys, problem/ansatz/optimizer names, and backend
 * names are rejected with a descriptive error at parse time.
 */

#ifndef TREEVQA_SVC_SCENARIO_SPEC_H
#define TREEVQA_SVC_SCENARIO_SPEC_H

#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/engine_config.h"
#include "core/vqa_task.h"
#include "circuit/ansatz.h"
#include "opt/cobyla.h"
#include "opt/implicit_filtering.h"
#include "opt/nelder_mead.h"
#include "opt/optimizer.h"
#include "opt/spsa.h"

namespace treevqa {

/** One declarative experiment request. */
struct ScenarioSpec
{
    std::string name = "scenario";
    /** Problem family: "h2", "hchain", "tfim", "xxz", "maxcut_ring". */
    std::string problem = "tfim";
    /** Sites / atoms / graph nodes (h2 is fixed at 4 qubits). */
    int size = 4;
    /** Bond length (h2) / atom spacing (hchain), in angstrom. */
    double bond = 0.74;
    /** Coupling J (tfim/xxz). */
    double coupling = 1.0;
    /** Transverse field h (tfim) / anisotropy delta (xxz). */
    double field = 1.0;
    /** Ansatz family: "hea", "uccsd_min", "ma_qaoa", "qaoa". */
    std::string ansatz = "hea";
    int layers = 2;
    /** Optimizer name: "spsa", "cobyla", "nelder_mead",
     * "implicit_filtering". Only the matching config block below is
     * serialized. */
    std::string optimizer = "spsa";
    SpsaConfig spsa;
    CobylaConfig cobyla;
    NelderMeadConfig nelderMead;
    ImplicitFilteringConfig implicitFiltering;
    /** Execution model (backend selected by name). */
    EngineConfig engine;
    int maxIterations = 100;
    /** Shot budget for this job (0 = bounded by maxIterations only).
     * Algorithm 1's rule, as for tree rounds: the job steps while its
     * shots are below the budget, so it stops at the first iteration
     * whose shots reach it. */
    std::uint64_t shotBudget = 0;
    /** Root seed; the evaluation-noise stream and the optimizer's
     * private stream both derive from it (deriveScenarioSeed), so a
     * job's results depend on nothing but its spec. */
    std::uint64_t seed = 1;
    /** Iterations between checkpoint writes (0 = no checkpointing). */
    int checkpointInterval = 25;
    /** Solve the exact ground energy (Lanczos) for fidelity records. */
    bool computeReference = false;
};

/** Lossless serialization (the canonical form fingerprints hash). */
JsonValue scenarioToJson(const ScenarioSpec &spec);

/** Parse and validate one (already expanded) spec object. Throws
 * std::invalid_argument with a descriptive message on unknown keys,
 * names, or backend. */
ScenarioSpec scenarioFromJson(const JsonValue &json);

/** Stable identity of a spec: FNV-1a of its canonical serialization.
 * Keys checkpoint files and result records. */
std::string scenarioFingerprint(const ScenarioSpec &spec);

/**
 * Expand a request document into its job list: a single spec object,
 * an array of them, or spec objects carrying a "sweep" member whose
 * cross product fans out (expanded names gain a "/key=value" suffix
 * per swept field, in sweep-key order).
 */
std::vector<ScenarioSpec> expandScenarios(const JsonValue &request);

/** Derive an independent 64-bit stream seed from the spec seed
 * (SplitMix64-style; distinct salts give decorrelated streams). */
std::uint64_t deriveScenarioSeed(std::uint64_t base, std::uint64_t salt);

/** Materialize the spec's problem instance (optionally with the FCI
 * reference energy solved). */
VqaTask buildScenarioTask(const ScenarioSpec &spec);

/** Materialize the spec's ansatz for the given problem instance.
 * Throws std::invalid_argument on incompatible combinations (e.g.
 * "uccsd_min" on a non-4-qubit problem, QAOA on a non-graph
 * problem). */
Ansatz buildScenarioAnsatz(const ScenarioSpec &spec, const VqaTask &task);

/** Construct the spec's optimizer (fresh, un-reset). */
std::unique_ptr<IterativeOptimizer>
makeScenarioOptimizer(const ScenarioSpec &spec);

} // namespace treevqa

#endif // TREEVQA_SVC_SCENARIO_SPEC_H
