/**
 * @file
 * Work-queue thread pool shared by the whole simulator stack.
 *
 * One process-global pool (ThreadPool::global()) is sized from the
 * WC3D_THREADS environment knob (default: hardware concurrency; 1 =
 * fully sequential). Work is submitted through TaskGroup, a
 * wait-group whose wait() *helps*: while its tasks are
 * outstanding the waiting thread pops and executes tasks of the same
 * group instead of blocking, so nested parallelism (experiment-level
 * fan-out whose runs internally shard shading work onto the same pool)
 * cannot deadlock and never idles the waiter.
 *
 * Determinism contract: the pool only distributes *pure* work; every
 * consumer shards its state per worker slot (indexed by currentSlot())
 * and reduces in a fixed order, so results are bit-identical for any
 * thread count. See DESIGN.md "Threading model".
 */

#ifndef WC3D_COMMON_THREADPOOL_HH
#define WC3D_COMMON_THREADPOOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wc3d {

class TaskGroup;

/**
 * Fixed-size pool of worker threads draining a shared task queue.
 *
 * A pool of size N owns N-1 OS threads; the Nth participant is the
 * thread that waits on a TaskGroup (it helps while waiting), so
 * ThreadPool(1) owns no threads at all and every task runs inline at
 * submission, in submission order.
 */
class ThreadPool
{
  public:
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrency (including the helping submitter thread). */
    int threads() const { return _threads; }

    /**
     * Worker slot of the calling thread in [0, threads()): pool workers
     * occupy slots 1..N-1, any other thread (the submitter) slot 0.
     * Consumers index per-worker shards with this.
     */
    static int currentSlot();

    /** The process-global pool, lazily sized from WC3D_THREADS. */
    static ThreadPool &global();

    /** Largest WC3D_THREADS value configuredThreads() honours. */
    static constexpr int kMaxThreads = 256;

    /**
     * WC3D_THREADS value, or hardware concurrency when unset/<=0. A
     * value above kMaxThreads warns and is clamped to it.
     */
    static int configuredThreads();

    /**
     * Resize the global pool (benches/tests sweeping thread counts).
     * Must only be called while no tasks are in flight.
     */
    static void setGlobalThreads(int threads);

  private:
    friend class TaskGroup;

    struct Task
    {
        std::function<void()> fn;
        TaskGroup *group = nullptr;
    };

    void enqueue(Task task);

    /** Pop and execute one task of @p group (any group when null).
     *  @return false when no eligible task was queued. */
    bool runOne(TaskGroup *group);

    void workerLoop(int slot);

    int _threads;
    std::vector<std::thread> _workers;
    std::deque<Task> _queue;
    std::mutex _mutex;
    std::condition_variable _available;
    bool _stop = false;
};

/**
 * A wait-group of tasks on one pool. run() submits, wait() blocks until
 * every submitted task finished, executing queued tasks of this group
 * itself while it waits. On a 1-thread pool run() executes the task
 * inline, preserving exact sequential submission order.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(ThreadPool &pool = ThreadPool::global());
    ~TaskGroup() { wait(); }

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Submit one task. */
    void run(std::function<void()> fn);

    /** Block (helping) until all submitted tasks completed. */
    void wait();

  private:
    friend class ThreadPool;

    void taskDone();

    ThreadPool &_pool;
    std::atomic<int> _pending{0};
    std::mutex _mutex;
    std::condition_variable _done;
};

/**
 * Run fn(slot, begin, end) over disjoint chunks covering [0, n), in
 * parallel on @p pool. @p slot is the executing thread's worker slot
 * (stable per thread), letting callers accumulate into per-slot shards
 * they reduce deterministically afterwards. Sequential (single chunk,
 * slot of the calling thread) when the pool has one thread.
 */
template <typename Fn>
void
parallelForRanges(ThreadPool &pool, std::size_t n, Fn &&fn)
{
    if (n == 0)
        return;
    if (pool.threads() <= 1) {
        fn(ThreadPool::currentSlot(), std::size_t{0}, n);
        return;
    }
    // Several chunks per thread so uneven items still balance.
    std::size_t chunks =
        std::min(n, static_cast<std::size_t>(pool.threads()) * 4);
    std::size_t per = (n + chunks - 1) / chunks;
    TaskGroup group(pool);
    for (std::size_t begin = 0; begin < n; begin += per) {
        std::size_t end = std::min(n, begin + per);
        group.run([&fn, begin, end] {
            fn(ThreadPool::currentSlot(), begin, end);
        });
    }
    group.wait();
}

/** Element-wise variant: fn(slot, index) for each index in [0, n). */
template <typename Fn>
void
parallelFor(ThreadPool &pool, std::size_t n, Fn &&fn)
{
    parallelForRanges(pool, n,
                      [&fn](int slot, std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i)
                              fn(slot, i);
                      });
}

} // namespace wc3d

#endif // WC3D_COMMON_THREADPOOL_HH
