#include "init/warm_start.h"

#include <cassert>
#include <cmath>
#include <limits>

#include "circuit/ma_qaoa.h"
#include "sim/expectation.h"

namespace treevqa {

WeightedGraph
meanGraph(const std::vector<WeightedGraph> &graphs)
{
    assert(!graphs.empty());
    WeightedGraph mean = graphs.front();
    for (std::size_t g = 1; g < graphs.size(); ++g) {
        assert(graphs[g].edges.size() == mean.edges.size());
        for (std::size_t e = 0; e < mean.edges.size(); ++e)
            mean.edges[e].weight += graphs[g].edges[e].weight;
    }
    for (auto &edge : mean.edges)
        edge.weight /= static_cast<double>(graphs.size());
    return mean;
}

std::vector<double>
pooledQaoaInit(const std::vector<WeightedGraph> &graphs, int layers,
               int grid_resolution)
{
    assert(layers >= 1);
    assert(grid_resolution >= 2);

    const WeightedGraph pooled = meanGraph(graphs);
    const PauliSum cost = maxcutHamiltonian(pooled);
    const std::vector<QuboClause> clauses = maxcutClauses(pooled);
    const int n = pooled.numNodes;
    const std::size_t m = clauses.size();

    // Standard QAOA ansatz on the pooled graph: 2 params per layer.
    const Ansatz standard =
        makeMaQaoaAnsatz(n, clauses, layers, /*multi_angle=*/false);

    // Greedy layer-by-layer grid search; deeper layers are appended
    // while shallower ones stay frozen.
    std::vector<double> angles(static_cast<std::size_t>(2 * layers),
                               0.0);
    // One plan and one state buffer serve every grid point.
    const ExpectationPlan plan(cost);
    const std::vector<double> coefficients = termCoefficients(cost);
    Statevector state(standard.numQubits());
    const auto evaluate = [&](const std::vector<double> &theta) {
        standard.prepareInto(state, theta);
        return recombine(coefficients, plan.evaluate(state));
    };

    for (int layer = 0; layer < layers; ++layer) {
        double best_e = std::numeric_limits<double>::infinity();
        double best_gamma = 0.0, best_beta = 0.0;
        for (int gi = 0; gi < grid_resolution; ++gi) {
            const double gamma =
                M_PI * (gi + 0.5) / grid_resolution;
            for (int bi = 0; bi < grid_resolution; ++bi) {
                const double beta =
                    M_PI_2 * (bi + 0.5) / grid_resolution;
                angles[2 * layer] = gamma;
                angles[2 * layer + 1] = beta;
                const double e = evaluate(angles);
                if (e < best_e) {
                    best_e = e;
                    best_gamma = gamma;
                    best_beta = beta;
                }
            }
        }
        angles[2 * layer] = best_gamma;
        angles[2 * layer + 1] = best_beta;
    }

    // Broadcast to the ma-QAOA layout: per layer, m clause slots take
    // gamma_l then n mixer slots take beta_l.
    std::vector<double> expanded;
    expanded.reserve((m + n) * layers);
    for (int layer = 0; layer < layers; ++layer) {
        for (std::size_t a = 0; a < m; ++a)
            expanded.push_back(angles[2 * layer]);
        for (int b = 0; b < n; ++b)
            expanded.push_back(angles[2 * layer + 1]);
    }
    return expanded;
}

} // namespace treevqa
