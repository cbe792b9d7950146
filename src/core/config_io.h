/**
 * @file
 * JSON serialization hooks for the execution-model configuration and
 * run results — the seam between the core engine and the
 * scenario-orchestration runtime (src/svc/).
 *
 * EngineConfig round-trips losslessly for every registered backend:
 * engineConfigToJson always emits the backend name, and
 * engineConfigFromJson validates the name against the SimBackend
 * registry up front, so a spec with an unknown backend fails at parse
 * time with a message naming the valid choices instead of deep inside
 * objective construction.
 */

#ifndef TREEVQA_CORE_CONFIG_IO_H
#define TREEVQA_CORE_CONFIG_IO_H

#include "common/json.h"
#include "core/tree_controller.h"
#include "core/vqa_cluster.h"

namespace treevqa {

/** EngineConfig <-> JSON (lossless; backendName always emitted). */
JsonValue engineConfigToJson(const EngineConfig &config);
EngineConfig engineConfigFromJson(const JsonValue &json);

/** ClusterConfig (split-monitoring knobs) <-> JSON. */
JsonValue clusterConfigToJson(const ClusterConfig &config);
ClusterConfig clusterConfigFromJson(const JsonValue &json);

/** Full TreeVqaConfig <-> JSON (nests engine + cluster blocks). */
JsonValue treeVqaConfigToJson(const TreeVqaConfig &config);
TreeVqaConfig treeVqaConfigFromJson(const JsonValue &json);

/** One-way result export: outcomes, tree shape and the shot/energy
 * trace of a finished run (NaN fidelities become JSON null). */
JsonValue treeVqaResultToJson(const TreeVqaResult &result);

} // namespace treevqa

#endif // TREEVQA_CORE_CONFIG_IO_H
