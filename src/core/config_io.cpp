#include "core/config_io.h"

#include <stdexcept>

#include "core/sim_backend.h"

namespace treevqa {

JsonValue
engineConfigToJson(const EngineConfig &config)
{
    JsonValue out = JsonValue::object();
    out.set("backend", JsonValue(config.backendName));
    out.set("shotsPerTerm", JsonValue(config.shotsPerTerm));
    out.set("injectShotNoise", JsonValue(config.injectShotNoise));
    if (!config.noise.isNoiseless()) {
        JsonValue noise = JsonValue::object();
        noise.set("gateFidelity", JsonValue(config.noise.gateFidelity()));
        noise.set("readoutFidelity",
                  JsonValue(config.noise.readoutFidelity()));
        noise.set("name", JsonValue(config.noise.name()));
        out.set("noise", std::move(noise));
    }
    JsonValue prop = JsonValue::object();
    prop.set("maxWeight",
             JsonValue(static_cast<std::int64_t>(
                 config.propConfig.maxWeight)));
    prop.set("coefThreshold", JsonValue(config.propConfig.coefThreshold));
    prop.set("maxTerms",
             JsonValue(static_cast<std::uint64_t>(
                 config.propConfig.maxTerms)));
    out.set("propConfig", std::move(prop));
    return out;
}

EngineConfig
engineConfigFromJson(const JsonValue &json)
{
    EngineConfig config;
    jsonRejectUnknownKeys(
        json, {"backend", "shotsPerTerm", "injectShotNoise", "noise",
               "propConfig"},
        "engine config");
    jsonMaybe(json, "backend", [&](const JsonValue &v) {
        const std::string &name = v.asString();
        const auto &known = simBackendNames();
        bool found = false;
        for (const auto &k : known)
            found = found || k == name;
        if (!found)
            throw std::invalid_argument(
                "engine config: unknown backend \"" + name
                + "\" (registered backends: " + jsonJoinQuoted(known)
                + ")");
        config.backendName = name;
    });
    jsonMaybe(json, "shotsPerTerm", [&](const JsonValue &v) {
        config.shotsPerTerm = v.asUint();
    });
    jsonMaybe(json, "injectShotNoise", [&](const JsonValue &v) {
        config.injectShotNoise = v.asBool();
    });
    jsonMaybe(json, "noise", [&](const JsonValue &v) {
        jsonRejectUnknownKeys(
            v, {"gateFidelity", "readoutFidelity", "name"},
            "engine config noise");
        config.noise = NoiseModel(v.at("gateFidelity").asDouble(),
                                  v.at("readoutFidelity").asDouble(),
                                  v.at("name").asString());
    });
    jsonMaybe(json, "propConfig", [&](const JsonValue &v) {
        jsonRejectUnknownKeys(
            v, {"maxWeight", "coefThreshold", "maxTerms"},
            "engine config propConfig");
        jsonMaybe(v, "maxWeight", [&](const JsonValue &w) {
            config.propConfig.maxWeight = static_cast<int>(w.asInt());
        });
        jsonMaybe(v, "coefThreshold", [&](const JsonValue &w) {
            config.propConfig.coefThreshold = w.asDouble();
        });
        jsonMaybe(v, "maxTerms", [&](const JsonValue &w) {
            config.propConfig.maxTerms =
                static_cast<std::size_t>(w.asUint());
        });
    });
    return config;
}

JsonValue
clusterConfigToJson(const ClusterConfig &config)
{
    JsonValue out = JsonValue::object();
    out.set("warmupIterations",
            JsonValue(static_cast<std::int64_t>(
                config.warmupIterations)));
    out.set("windowSize",
            JsonValue(static_cast<std::uint64_t>(config.windowSize)));
    out.set("epsSplit", JsonValue(config.epsSplit));
    out.set("positiveSlopeTol", JsonValue(config.positiveSlopeTol));
    out.set("postSplitGrace",
            JsonValue(static_cast<std::int64_t>(config.postSplitGrace)));
    return out;
}

ClusterConfig
clusterConfigFromJson(const JsonValue &json)
{
    ClusterConfig config;
    jsonRejectUnknownKeys(json,
                          {"warmupIterations", "windowSize", "epsSplit",
                           "positiveSlopeTol", "postSplitGrace"},
                          "cluster config");
    jsonMaybe(json, "warmupIterations", [&](const JsonValue &v) {
        config.warmupIterations = static_cast<int>(v.asInt());
    });
    jsonMaybe(json, "windowSize", [&](const JsonValue &v) {
        config.windowSize = static_cast<std::size_t>(v.asUint());
    });
    jsonMaybe(json, "epsSplit", [&](const JsonValue &v) {
        config.epsSplit = v.asDouble();
    });
    jsonMaybe(json, "positiveSlopeTol", [&](const JsonValue &v) {
        config.positiveSlopeTol = v.asDouble();
    });
    jsonMaybe(json, "postSplitGrace", [&](const JsonValue &v) {
        config.postSplitGrace = static_cast<int>(v.asInt());
    });
    return config;
}

JsonValue
treeVqaConfigToJson(const TreeVqaConfig &config)
{
    JsonValue out = JsonValue::object();
    out.set("shotBudget", JsonValue(config.shotBudget));
    out.set("maxRounds",
            JsonValue(static_cast<std::int64_t>(config.maxRounds)));
    out.set("metricsInterval",
            JsonValue(static_cast<std::int64_t>(
                config.metricsInterval)));
    out.set("engine", engineConfigToJson(config.engine));
    out.set("cluster", clusterConfigToJson(config.cluster));
    out.set("seed", JsonValue(config.seed));
    return out;
}

TreeVqaConfig
treeVqaConfigFromJson(const JsonValue &json)
{
    TreeVqaConfig config;
    jsonRejectUnknownKeys(json,
                          {"shotBudget", "maxRounds", "metricsInterval",
                           "engine", "cluster", "seed"},
                          "treevqa config");
    jsonMaybe(json, "shotBudget", [&](const JsonValue &v) {
        config.shotBudget = v.asUint();
    });
    jsonMaybe(json, "maxRounds", [&](const JsonValue &v) {
        config.maxRounds = static_cast<int>(v.asInt());
    });
    jsonMaybe(json, "metricsInterval", [&](const JsonValue &v) {
        config.metricsInterval = static_cast<int>(v.asInt());
    });
    jsonMaybe(json, "engine", [&](const JsonValue &v) {
        config.engine = engineConfigFromJson(v);
    });
    jsonMaybe(json, "cluster", [&](const JsonValue &v) {
        config.cluster = clusterConfigFromJson(v);
    });
    jsonMaybe(json, "seed",
          [&](const JsonValue &v) { config.seed = v.asUint(); });
    return config;
}

JsonValue
treeVqaResultToJson(const TreeVqaResult &result)
{
    JsonValue out = JsonValue::object();
    JsonValue outcomes = JsonValue::array();
    for (const TaskOutcome &o : result.outcomes) {
        JsonValue entry = JsonValue::object();
        entry.set("bestEnergy", JsonValue(o.bestEnergy));
        entry.set("bestClusterId",
                  JsonValue(static_cast<std::int64_t>(o.bestClusterId)));
        entry.set("fidelity", jsonNumberOrNull(o.fidelity));
        outcomes.push_back(std::move(entry));
    }
    out.set("outcomes", std::move(outcomes));
    out.set("totalShots", JsonValue(result.totalShots));
    out.set("rounds",
            JsonValue(static_cast<std::int64_t>(result.rounds)));
    out.set("finalClusterCount",
            JsonValue(static_cast<std::uint64_t>(
                result.finalClusterCount)));
    out.set("maxTreeLevel",
            JsonValue(static_cast<std::int64_t>(result.maxTreeLevel)));
    out.set("criticalDepthFraction",
            JsonValue(result.criticalDepthFraction));
    out.set("splitCount",
            JsonValue(static_cast<std::int64_t>(result.splitCount)));
    JsonValue trace = JsonValue::array();
    for (const TraceSample &s : result.trace) {
        JsonValue sample = JsonValue::object();
        sample.set("shots", JsonValue(s.shots));
        sample.set("iteration",
                   JsonValue(static_cast<std::int64_t>(s.iteration)));
        sample.set("numClusters",
                   JsonValue(static_cast<std::uint64_t>(s.numClusters)));
        JsonValue energies = JsonValue::array();
        for (const double e : s.bestEnergies)
            energies.push_back(jsonNumberOrNull(e));
        sample.set("bestEnergies", std::move(energies));
        trace.push_back(std::move(sample));
    }
    out.set("trace", std::move(trace));
    return out;
}

} // namespace treevqa
