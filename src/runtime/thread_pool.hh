/**
 * @file
 * A small work-stealing-free thread pool for intra-session kernel
 * parallelism: one pool per InferenceSession / ContinuousBatch
 * engine (never shared), splitting the row blocks of each timestep
 * GEMM across cores.
 *
 * Design constraints, in order:
 *
 *  - determinism: run() splits [0, n) into at most threads()
 *    contiguous ranges with a fixed arithmetic, so which thread runs
 *    a range can vary but the ranges themselves never do. Kernels
 *    keep bit-identical outputs because each output row is written
 *    by exactly one range.
 *  - zero steady-state allocation: jobs are a raw function pointer
 *    plus a context pointer (parallelFor wraps a lambda without
 *    touching the heap), and range claiming is one atomic counter.
 *  - caller participation: a pool of N threads holds N-1 workers;
 *    the calling thread executes ranges too, so computeThreads = 1
 *    costs no synchronization at all (run() degenerates to a direct
 *    call).
 *
 * The pool is deliberately not work-stealing: kernel row blocks are
 * uniform, so static contiguous partitions lose nothing and keep the
 * claiming logic one fetch_add.
 */

#ifndef ERNN_RUNTIME_THREAD_POOL_HH
#define ERNN_RUNTIME_THREAD_POOL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "base/sync.hh"

namespace ernn::runtime
{

class ThreadPool
{
  public:
    /** A pool of @p threads total lanes of execution (including the
     *  caller): threads - 1 workers are spawned. 0 and 1 both mean
     *  "no workers". */
    explicit ThreadPool(std::size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total execution lanes (workers + the calling thread). */
    std::size_t threads() const { return workers_.size() + 1; }

    /** One contiguous index range of a job. */
    using RangeFn = void (*)(std::size_t begin, std::size_t end,
                             void *ctx);

    /**
     * Split [0, n) into min(threads(), n) contiguous ranges and run
     * @p fn over every range, on the workers plus the calling
     * thread. Blocks until all ranges completed. Not reentrant: one
     * job at a time per pool (sessions are single-threaded drivers,
     * so this never constrains them).
     */
    void run(std::size_t n, RangeFn fn, void *ctx);

    /** run() with a callable (no heap allocation: the callable lives
     *  on the caller's stack for the duration of the job). */
    template <typename F>
    void
    parallelFor(std::size_t n, F &&f)
    {
        using Fn = typename std::remove_reference<F>::type;
        run(n,
            [](std::size_t begin, std::size_t end, void *ctx) {
                (*static_cast<Fn *>(ctx))(begin, end);
            },
            &f);
    }

    /**
     * First index of range @p part when [0, n) splits into @p parts
     * contiguous ranges — the fixed split run() uses: the first
     * (n % parts) ranges take one extra index, so the partition never
     * depends on which thread claims which range. Range @p part is
     * [partBegin(part), partBegin(part + 1)).
     */
    static std::size_t
    partBegin(std::size_t n, std::size_t parts, std::size_t part)
    {
        const std::size_t rem = n % parts;
        return part * (n / parts) + (part < rem ? part : rem);
    }

  private:
    /** One published job: every worker copies it out under mu_ and
     *  then executes from its private copy, so the shared fields are
     *  only ever touched with the lock held — the publication
     *  protocol is provable by the capability analysis instead of
     *  being a documented convention. */
    struct Job
    {
        RangeFn fn = nullptr;
        void *ctx = nullptr;
        std::size_t n = 0;
        std::size_t parts = 0;
    };

    void workerLoop();

    /** Claim and execute ranges of @p job until exhausted. Reads
     *  only the caller's private copy plus the nextPart_ atomic. */
    void work(const Job &job);

    // Spawned by the constructor, joined by the destructor, sized
    // (threads()) immutably in between — no lock needed.
    std::vector<std::thread> workers_; // lint: thread-spawn(pool workers)

    base::Mutex mu_;
    base::CondVar jobCv_;  //!< a new job was published
    base::CondVar doneCv_; //!< all workers drained the job
    std::uint64_t generation_ ERNN_GUARDED_BY(mu_) = 0; //!< publications
    std::size_t pending_ ERNN_GUARDED_BY(mu_) = 0; //!< workers on job
    bool stop_ ERNN_GUARDED_BY(mu_) = false;
    Job job_ ERNN_GUARDED_BY(mu_); //!< current job (copied out by workers)
    std::atomic<std::size_t> nextPart_{0}; //!< range claim counter
};

} // namespace ernn::runtime

#endif // ERNN_RUNTIME_THREAD_POOL_HH
