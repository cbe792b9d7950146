#include "core/vqa_cluster.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "cluster/similarity.h"
#include "cluster/spectral.h"

namespace treevqa {

namespace {

/** Scale-free slope: regression slope / max(|window mean|, floor). */
double
relativeSlope(const SlidingWindow &window)
{
    const double denom = std::max(std::fabs(window.windowMean()), 1e-12);
    return window.slope() / denom;
}

JsonValue
windowToJson(const SlidingWindow &window)
{
    return paramsToJson({window.values().begin(), window.values().end()});
}

SlidingWindow
windowFromJson(const JsonValue &json, std::size_t capacity)
{
    SlidingWindow window(capacity);
    for (const JsonValue &v : json.asArray())
        window.push(v.asDouble());
    if (window.size() != json.asArray().size())
        throw std::runtime_error("VqaCluster: window state exceeds "
                                 "the window length");
    return window;
}

} // namespace

VqaCluster::VqaCluster(int id, int level, int parent_id,
                       std::vector<std::size_t> task_indices,
                       std::vector<PauliSum> task_hamiltonians,
                       Ansatz ansatz, const EngineConfig &engine_config,
                       const ClusterConfig &cluster_config,
                       std::unique_ptr<IterativeOptimizer> optimizer,
                       std::vector<double> initial_params, Rng rng)
    : id_(id), level_(level), parentId_(parent_id),
      taskIndices_(std::move(task_indices)),
      objective_(std::move(task_hamiltonians), std::move(ansatz),
                 engine_config),
      clusterConfig_(cluster_config), optimizer_(std::move(optimizer)),
      params_(std::move(initial_params)), rng_(rng),
      mixedWindow_(cluster_config.windowSize)
{
    assert(objective_.numTasks() == taskIndices_.size());
    assert(static_cast<int>(params_.size())
           == objective_.ansatz().numParams());
    taskWindows_.assign(objective_.numTasks(),
                        SlidingWindow(cluster_config.windowSize));
    optimizer_->reset(params_);
}

double
VqaCluster::mixedSlope() const
{
    return relativeSlope(mixedWindow_);
}

std::vector<double>
VqaCluster::individualSlopes() const
{
    std::vector<double> slopes;
    slopes.reserve(taskWindows_.size());
    for (const auto &window : taskWindows_)
        slopes.push_back(relativeSlope(window));
    return slopes;
}

bool
VqaCluster::monitoringActive() const
{
    return iterations_ >= clusterConfig_.warmupIterations
        && iterations_ >= monitorHoldUntil_ && mixedWindow_.full();
}

VqaCluster::Status
VqaCluster::step(ShotLedger &ledger)
{
    // The optimizer sees only the noisy mixed energy; member energies
    // from the same evaluations are accumulated for the loss windows.
    // Each per-iterate probe set goes through evaluateBatch, which
    // fans the independent state preparations out over the thread
    // pool; accumulation happens back on this thread after the batch
    // returns.
    std::vector<double> task_energy_sum(objective_.numTasks(), 0.0);
    int evals = 0;
    const BatchObjective f =
        [&](const std::vector<std::vector<double>> &thetas) {
            const std::vector<ClusterEvaluation> evs =
                objective_.evaluateBatch(thetas, rng_);
            std::vector<double> losses(evs.size());
            for (std::size_t p = 0; p < evs.size(); ++p) {
                ledger.charge(evs[p].shotsUsed);
                for (std::size_t i = 0; i < task_energy_sum.size(); ++i)
                    task_energy_sum[i] += evs[p].taskEnergies[i];
                ++evals;
                losses[p] = evs[p].mixedEnergy;
            }
            return losses;
        };

    const double loss = optimizer_->stepBatch(f);
    params_ = optimizer_->params();
    lastLoss_ = loss;
    ++iterations_;

    mixedWindow_.push(loss);
    if (evals > 0) {
        for (std::size_t i = 0; i < taskWindows_.size(); ++i)
            taskWindows_[i].push(task_energy_sum[i]
                                 / static_cast<double>(evals));
    }

    if (!monitoringActive())
        return Status::Running;

    // Split condition (Section 5.2.3): stalled mixed optimization, or
    // any member whose loss trends upward inside the joint state.
    const double slope = mixedSlope();
    if (std::fabs(slope) < clusterConfig_.epsSplit)
        return Status::SplitRequested;
    for (const auto &window : taskWindows_) {
        if (relativeSlope(window) > clusterConfig_.positiveSlopeTol)
            return Status::SplitRequested;
    }
    return Status::Running;
}

std::vector<double>
VqaCluster::exactTaskEnergies() const
{
    return objective_.exactTaskEnergies(params_);
}

std::pair<std::vector<std::size_t>, std::vector<std::size_t>>
VqaCluster::partitionMembers(const Matrix &global_similarity,
                             Rng &rng) const
{
    assert(taskIndices_.size() >= 2);
    const Matrix local = submatrix(global_similarity, taskIndices_);
    const SpectralResult spectral = spectralCluster(local, 2, rng);

    std::vector<std::size_t> left, right;
    for (std::size_t i = 0; i < taskIndices_.size(); ++i) {
        if (spectral.assignment[i] == 0)
            left.push_back(taskIndices_[i]);
        else
            right.push_back(taskIndices_[i]);
    }
    // Spectral clustering with k-means re-seeding guarantees non-empty
    // clusters, but guard against degenerate similarity structure.
    if (left.empty() || right.empty()) {
        left.assign(taskIndices_.begin(),
                    taskIndices_.begin() + taskIndices_.size() / 2);
        right.assign(taskIndices_.begin() + taskIndices_.size() / 2,
                     taskIndices_.end());
    }
    return {std::move(left), std::move(right)};
}

void
VqaCluster::rearmMonitor()
{
    monitorHoldUntil_ =
        iterations_ + clusterConfig_.postSplitGrace
        + static_cast<int>(clusterConfig_.windowSize);
    mixedWindow_.clear();
    for (auto &window : taskWindows_)
        window.clear();
}

void
VqaCluster::overrideParams(const std::vector<double> &params)
{
    assert(params.size() == params_.size());
    params_ = params;
    optimizer_->reset(params_);
    rearmMonitor();
}

JsonValue
VqaCluster::saveState() const
{
    JsonValue out = JsonValue::object();
    out.set("optimizer", optimizer_->saveState());
    out.set("rng", rngStateToJson(rng_.state()));
    out.set("params", paramsToJson(params_));
    out.set("iterations",
            JsonValue(static_cast<std::int64_t>(iterations_)));
    out.set("monitorHoldUntil",
            JsonValue(static_cast<std::int64_t>(monitorHoldUntil_)));
    out.set("lastLoss", jsonNumberOrNull(lastLoss_));
    out.set("mixedWindow", windowToJson(mixedWindow_));
    JsonValue task_windows = JsonValue::array();
    for (const SlidingWindow &window : taskWindows_)
        task_windows.push_back(windowToJson(window));
    out.set("taskWindows", std::move(task_windows));
    return out;
}

void
VqaCluster::loadState(const JsonValue &state)
{
    // Everything is parsed into temporaries first, so a throw leaves
    // the cluster as it was.
    std::vector<double> params = paramsFromJson(state.at("params"));
    const std::vector<JsonValue> &task_json =
        state.at("taskWindows").asArray();
    if (params.size() != params_.size()
        || task_json.size() != taskWindows_.size())
        throw std::runtime_error(
            "VqaCluster: state belongs to a cluster of another shape");
    SlidingWindow mixed =
        windowFromJson(state.at("mixedWindow"), mixedWindow_.capacity());
    std::vector<SlidingWindow> task_windows;
    for (const JsonValue &window : task_json)
        task_windows.push_back(
            windowFromJson(window, mixedWindow_.capacity()));
    std::unique_ptr<IterativeOptimizer> optimizer =
        optimizer_->cloneConfig();
    optimizer->loadState(state.at("optimizer"));
    const RngState rng = rngStateFromJson(state.at("rng"));
    const int iterations = static_cast<int>(state.at("iterations").asInt());
    const int hold = static_cast<int>(state.at("monitorHoldUntil").asInt());
    const JsonValue &last = state.at("lastLoss");
    lastLoss_ = last.isNull() ? std::numeric_limits<double>::quiet_NaN()
                              : last.asDouble();
    iterations_ = iterations;
    monitorHoldUntil_ = hold;
    optimizer_ = std::move(optimizer);
    rng_.setState(rng);
    params_ = std::move(params);
    mixedWindow_ = std::move(mixed);
    taskWindows_ = std::move(task_windows);
}

} // namespace treevqa
