/**
 * @file
 * Reusable statevector workspaces for concurrent objective evaluation.
 *
 * Objective evaluations are the per-iterate hot path: reallocating a
 * 2^n complex vector per call costs more than the gates at small n, so
 * buffers are pooled and reused. Unlike the former single lazy
 * workspace (which made ClusterObjective::evaluate non-reentrant), the
 * pool hands each concurrent evaluation its own buffer: parallel probe
 * batches check one out, prepare their state, and return it. Buffers
 * are created on demand, so the pool never holds more statevectors
 * than the peak evaluation concurrency, and a PauliPropagation-backend
 * objective never allocates any.
 */

#ifndef TREEVQA_SIM_WORKSPACE_POOL_H
#define TREEVQA_SIM_WORKSPACE_POOL_H

#include <memory>
#include <mutex>
#include <vector>

#include "sim/statevector.h"

namespace treevqa {

/** Thread-safe checkout pool of equally-sized statevectors. */
class StatevectorPool
{
  public:
    explicit StatevectorPool(int num_qubits) : numQubits_(num_qubits) {}

    /** RAII checkout: returns the buffer to the pool on destruction. */
    class Lease
    {
      public:
        Lease(StatevectorPool &pool,
              std::unique_ptr<Statevector> state)
            : pool_(&pool), state_(std::move(state))
        {
        }
        ~Lease()
        {
            if (state_)
                pool_->release(std::move(state_));
        }
        Lease(Lease &&) = default;
        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;
        Lease &operator=(Lease &&) = delete;

        Statevector &operator*() { return *state_; }
        Statevector *operator->() { return state_.get(); }

      private:
        StatevectorPool *pool_;
        std::unique_ptr<Statevector> state_;
    };

    /** Check out a buffer, allocating one if the pool is empty. */
    Lease acquire()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!free_.empty()) {
                auto state = std::move(free_.back());
                free_.pop_back();
                return Lease(*this, std::move(state));
            }
        }
        return Lease(*this, std::make_unique<Statevector>(numQubits_));
    }

    int numQubits() const { return numQubits_; }

  private:
    void release(std::unique_ptr<Statevector> state)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        free_.push_back(std::move(state));
    }

    int numQubits_;
    std::mutex mutex_;
    std::vector<std::unique_ptr<Statevector>> free_;
};

} // namespace treevqa

#endif // TREEVQA_SIM_WORKSPACE_POOL_H
