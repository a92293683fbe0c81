/**
 * @file
 * A fixed-size thread pool for embarrassingly parallel sweeps.
 *
 * DVFS evaluation sweeps are grids of fully independent
 * (workload, controller, config) runs, so the executor's contract is
 * deliberately minimal: execute fn(0..n-1) across a fixed set of
 * worker threads and return when every index has run. Determinism is
 * the design constraint throughout:
 *
 *  - results go into pre-sized slots indexed by submission order, so
 *    aggregation never depends on completion order;
 *  - a single-thread executor runs every task inline on the calling
 *    thread, guaranteeing `--threads 1` exercises exactly the serial
 *    code path;
 *  - a task that throws does not poison the batch - every other index
 *    still runs - and the first (lowest-index) exception is rethrown
 *    after the batch completes. Callers that want per-task error
 *    containment (the bench sweep runner) catch inside the task.
 *
 * The executor is used at two levels: bench::SweepRunner spreads
 * whole sweep cells across it, and oracle::forkPreExecuteSweep can
 * run the S independent V/f samples of one epoch boundary on it
 * (in-cell parallelism, for when the outer sweep leaves cores idle).
 * To keep the latter free of a sim -> oracle -> sim dependency cycle
 * the translation unit is compiled into pcstall_common; the namespace
 * stays pcstall::sim for source compatibility.
 */

#ifndef PCSTALL_SIM_PARALLEL_EXECUTOR_HH
#define PCSTALL_SIM_PARALLEL_EXECUTOR_HH

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pcstall::sim
{

/** Fixed-size worker pool executing indexed task batches. */
class ParallelExecutor
{
  public:
    /**
     * Create a pool of @p threads workers (0 = defaultThreadCount()).
     * With one thread no workers are spawned at all; batches run
     * inline on the calling thread.
     */
    explicit ParallelExecutor(unsigned threads = 0);

    ~ParallelExecutor();

    ParallelExecutor(const ParallelExecutor &) = delete;
    ParallelExecutor &operator=(const ParallelExecutor &) = delete;

    /** Number of threads tasks run on (>= 1). */
    unsigned threadCount() const { return numThreads; }

    /** std::thread::hardware_concurrency with a floor of 1. */
    static unsigned defaultThreadCount();

    /**
     * Run fn(i) for every i in [0, n) and block until all complete.
     * Indices are claimed dynamically (fetch-and-increment), so long
     * and short tasks mix without static imbalance. If any task
     * throws, the remaining indices still execute and the exception
     * thrown by the lowest index is rethrown here.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &fn);

    /**
     * Parallel map: results land in a vector indexed by submission
     * order, independent of which thread produced them or when.
     * T must be default-constructible.
     */
    template <typename T, typename Fn>
    std::vector<T>
    map(std::size_t n, Fn &&fn)
    {
        std::vector<T> out(n);
        forEach(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

  private:
    void workerLoop();

    unsigned numThreads;
    std::vector<std::thread> workers;

    std::mutex mutex;
    std::condition_variable wake;
    std::condition_variable idle;

    // Current batch (guarded by mutex; tasks themselves run unlocked).
    const std::function<void(std::size_t)> *batchFn = nullptr;
    std::size_t batchNext = 0;
    std::size_t batchSize = 0;
    std::size_t batchRunning = 0;
    std::uint64_t batchGeneration = 0;
    std::vector<std::pair<std::size_t, std::exception_ptr>> batchErrors;
    bool shuttingDown = false;
};

} // namespace pcstall::sim

#endif // PCSTALL_SIM_PARALLEL_EXECUTOR_HH
