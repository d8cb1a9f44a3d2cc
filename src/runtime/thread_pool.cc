#include "runtime/thread_pool.hh"

#include <algorithm>

namespace ernn::runtime
{

ThreadPool::ThreadPool(std::size_t threads)
{
    const std::size_t workers = threads > 1 ? threads - 1 : 0;
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        base::MutexLock lock(mu_);
        stop_ = true;
    }
    jobCv_.notifyAll();
    for (auto &t : workers_)
        t.join();
}

void
ThreadPool::run(std::size_t n, RangeFn fn, void *ctx)
{
    if (n == 0)
        return;
    if (workers_.empty() || n == 1) {
        fn(0, n, ctx);
        return;
    }
    const Job job{fn, ctx, n, std::min(threads(), n)};
    {
        base::MutexLock lock(mu_);
        job_ = job;
        nextPart_.store(0, std::memory_order_relaxed);
        pending_ = workers_.size();
        ++generation_;
    }
    jobCv_.notifyAll();
    work(job);
    base::UniqueLock lock(mu_);
    while (pending_ != 0)
        doneCv_.wait(lock);
}

void
ThreadPool::work(const Job &job)
{
    for (;;) {
        const std::size_t part =
            nextPart_.fetch_add(1, std::memory_order_relaxed);
        if (part >= job.parts)
            return;
        job.fn(partBegin(job.n, job.parts, part),
               partBegin(job.n, job.parts, part + 1), job.ctx);
    }
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        Job job;
        {
            base::UniqueLock lock(mu_);
            while (!stop_ && generation_ == seen)
                jobCv_.wait(lock);
            if (stop_)
                return;
            seen = generation_;
            // Copy the job out under the lock; execution below works
            // from the private copy so job_ itself stays guarded.
            job = job_;
        }
        work(job);
        {
            base::MutexLock lock(mu_);
            if (--pending_ == 0)
                doneCv_.notifyOne();
        }
    }
}

} // namespace ernn::runtime
