#include "core/vqa_task.h"

#include "common/rng.h"
#include "linalg/lanczos.h"

namespace treevqa {

std::vector<VqaTask>
makeTasks(const std::string &name_prefix,
          const std::vector<PauliSum> &hamiltonians,
          std::uint64_t initial_bits)
{
    std::vector<VqaTask> tasks;
    tasks.reserve(hamiltonians.size());
    for (std::size_t i = 0; i < hamiltonians.size(); ++i) {
        VqaTask task;
        task.name = name_prefix;
        task.name += '[';
        task.name += std::to_string(i);
        task.name += ']';
        task.hamiltonian = hamiltonians[i];
        task.initialBits = initial_bits;
        tasks.push_back(std::move(task));
    }
    return tasks;
}

void
solveGroundEnergies(std::vector<VqaTask> &tasks, std::uint64_t seed)
{
    std::vector<LanczosProblem> problems;
    for (const VqaTask &task : tasks) {
        if (task.hasGroundEnergy())
            continue;
        const PauliSum &h = task.hamiltonian;
        problems.push_back(LanczosProblem{
            std::size_t{1} << h.numQubits(),
            [&h](const CVector &x, CVector &y) { h.applyTo(x, y); }});
    }
    Rng rng(seed);
    const std::vector<LanczosResult> results =
        lanczosGroundStates(problems, rng);
    std::size_t next = 0;
    for (VqaTask &task : tasks)
        if (!task.hasGroundEnergy())
            task.groundEnergy = results[next++].eigenvalue;
}

} // namespace treevqa
