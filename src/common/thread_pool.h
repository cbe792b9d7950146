/**
 * @file
 * Persistent worker-thread pool for the batched-evaluation engine.
 *
 * Every parallel surface of the framework — multi-theta probe batches
 * (ClusterObjective::evaluateBatch), threaded Pauli expectations
 * (ExpectationPlan::evaluate) and cluster rounds (TreeController) —
 * fans out over the single process-wide pool
 * returned by global(), so the thread count is one knob and nested
 * parallel regions cannot oversubscribe the machine: a run() issued
 * from inside a pool task executes inline on the calling worker.
 *
 * Determinism contract: run(count, fn) invokes fn(0..count-1) exactly
 * once each, in unspecified interleaving. Callers that need
 * bit-identical results across pool sizes must make each index's work
 * independent (index-derived RNG streams, index-slotted outputs) and
 * reduce in index order afterwards — which is exactly how the three
 * surfaces above are written.
 */

#ifndef TREEVQA_COMMON_THREAD_POOL_H
#define TREEVQA_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace treevqa {

/** Fixed-size pool of persistent workers plus the calling thread. */
class ThreadPool
{
  public:
    /**
     * @param threads total parallel lanes (caller + threads-1 workers);
     *        0 means defaultThreadCount().
     */
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Parallel lanes available (>= 1). */
    std::size_t numThreads() const { return targetThreads_; }

    /**
     * Re-create the pool with a new lane count (0 = default). Not
     * thread-safe against concurrent run() calls; intended for test
     * and bench setup.
     */
    void resize(std::size_t threads);

    /**
     * Invoke fn(i) for every i in [0, count), spreading indices over
     * the workers; the calling thread participates and the call
     * returns once all indices completed. Executes inline when the
     * pool has one lane, count < 2, or the caller is itself a pool
     * worker (nested parallelism). If fn throws, the index space is
     * still drained (remaining indices may or may not run) and the
     * first exception is rethrown on the calling thread.
     */
    void run(std::size_t count, const std::function<void(std::size_t)> &fn);

    /** True when called from inside a pool task. */
    static bool onWorkerThread();

    /**
     * The process-wide pool. Sized by the TREEVQA_NUM_THREADS
     * environment variable at first use, defaulting to the hardware
     * concurrency. Its lane count also sizes the state kernels'
     * OpenMP team (sim/statevector.cpp), so it is the only thread
     * setting.
     */
    static ThreadPool &global();

  private:
    void startWorkers(std::size_t workers);
    void stopWorkers();
    void workerLoop();

    std::size_t targetThreads_ = 1;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    /** Serializes concurrent top-level run() calls. */
    std::mutex runMutex_;
    const std::function<void(std::size_t)> *job_ = nullptr;
    std::size_t jobCount_ = 0;
    std::size_t nextIndex_ = 0;
    std::size_t pending_ = 0;
    std::exception_ptr firstError_;
    bool shutdown_ = false;
};

/** TREEVQA_NUM_THREADS if set and positive, else hardware concurrency
 * (>= 1). */
std::size_t defaultThreadCount();

} // namespace treevqa

#endif // TREEVQA_COMMON_THREAD_POOL_H
