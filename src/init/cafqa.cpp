#include "init/cafqa.h"

#include <cmath>

#include "sim/expectation.h"

namespace treevqa {

namespace {

const double kCliffordAngles[4] = {0.0, M_PI_2, M_PI, 1.5 * M_PI};

} // namespace

CafqaResult
cafqaSearch(const PauliSum &hamiltonian, const Ansatz &ansatz, Rng &rng,
            int sweeps, int restarts)
{
    const std::size_t n =
        static_cast<std::size_t>(ansatz.numParams());

    CafqaResult best;
    best.energy = std::numeric_limits<double>::infinity();

    // The Hamiltonian is planned once and every candidate is prepared
    // into one reused buffer: the search's energies are bitwise those
    // of expectation(ansatz.prepare(theta), hamiltonian).
    const ExpectationPlan plan(hamiltonian);
    const std::vector<double> coefficients = termCoefficients(hamiltonian);
    Statevector state(ansatz.numQubits());
    const auto evaluate = [&](const std::vector<double> &theta) {
        ansatz.prepareInto(state, theta);
        return recombine(coefficients, plan.evaluate(state));
    };

    for (int restart = 0; restart < restarts; ++restart) {
        std::vector<double> theta(n, 0.0);
        if (restart > 0)
            for (auto &t : theta)
                t = kCliffordAngles[rng.uniformInt(4)];

        double current = evaluate(theta);
        ++best.evaluations;

        for (int sweep = 0; sweep < sweeps; ++sweep) {
            bool improved = false;
            for (std::size_t p = 0; p < n; ++p) {
                const double saved = theta[p];
                double best_angle = saved;
                for (double angle : kCliffordAngles) {
                    if (angle == saved)
                        continue;
                    theta[p] = angle;
                    const double e = evaluate(theta);
                    ++best.evaluations;
                    if (e < current - 1e-12) {
                        current = e;
                        best_angle = angle;
                        improved = true;
                    }
                }
                theta[p] = best_angle;
            }
            if (!improved)
                break;
        }
        if (current < best.energy) {
            best.energy = current;
            best.params = theta;
        }
    }
    return best;
}

} // namespace treevqa
