#include "common/threadpool.hh"

#include <memory>

#include "common/env.hh"
#include "common/log.hh"
#include "common/prof.hh"
#include "common/strutil.hh"

namespace wc3d {

namespace {

/** Worker slot of this thread; 0 for any thread the pool did not spawn. */
thread_local int t_slot = 0;

std::mutex g_globalMutex;
std::unique_ptr<ThreadPool> g_globalPool;

} // namespace

ThreadPool::ThreadPool(int threads) : _threads(threads < 1 ? 1 : threads)
{
    _workers.reserve(static_cast<std::size_t>(_threads - 1));
    for (int i = 1; i < _threads; ++i)
        _workers.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stop = true;
    }
    _available.notify_all();
    for (std::thread &w : _workers)
        w.join();
}

int
ThreadPool::currentSlot()
{
    return t_slot;
}

int
ThreadPool::configuredThreads()
{
    int n = envInt("WC3D_THREADS", 0);
    if (n > kMaxThreads) {
        warn("WC3D_THREADS=%d exceeds %d; using %d", n, kMaxThreads,
             kMaxThreads);
        n = kMaxThreads;
    }
    if (n <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        n = hw ? static_cast<int>(hw) : 1;
    }
    return n;
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(g_globalMutex);
    if (!g_globalPool)
        g_globalPool = std::make_unique<ThreadPool>(configuredThreads());
    return *g_globalPool;
}

void
ThreadPool::setGlobalThreads(int threads)
{
    std::lock_guard<std::mutex> lock(g_globalMutex);
    if (g_globalPool && g_globalPool->threads() == threads)
        return;
    g_globalPool.reset(); // joins idle workers
    g_globalPool = std::make_unique<ThreadPool>(threads);
}

void
ThreadPool::enqueue(Task task)
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _queue.push_back(std::move(task));
    }
    _available.notify_one();
}

bool
ThreadPool::runOne(TaskGroup *group)
{
    Task task;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        auto it = _queue.begin();
        if (group) {
            while (it != _queue.end() && it->group != group)
                ++it;
        }
        if (it == _queue.end())
            return false;
        task = std::move(*it);
        _queue.erase(it);
    }
    {
        WC3D_PROF_SCOPE("pool.task");
        task.fn();
    }
    task.group->taskDone();
    return true;
}

void
ThreadPool::workerLoop(int slot)
{
    t_slot = slot;
    prof::setThreadName(format("worker%d", slot));
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _available.wait(lock,
                            [this] { return _stop || !_queue.empty(); });
            if (_queue.empty())
                return; // only reachable when stopping
            task = std::move(_queue.front());
            _queue.pop_front();
        }
        {
            WC3D_PROF_SCOPE("pool.task");
            task.fn();
        }
        task.group->taskDone();
    }
}

TaskGroup::TaskGroup(ThreadPool &pool) : _pool(pool) {}

void
TaskGroup::run(std::function<void()> fn)
{
    if (_pool.threads() <= 1) {
        // Sequential pool: execute at the submission site, in submission
        // order — the exact legacy single-threaded path.
        fn();
        return;
    }
    _pending.fetch_add(1, std::memory_order_relaxed);
    _pool.enqueue({std::move(fn), this});
}

void
TaskGroup::wait()
{
    // Completion may only be observed under _mutex: taskDone() performs
    // its decrement-and-notify while holding it, so once we see zero
    // here no completer can still be touching this group — the waiter
    // is free to destroy it the moment wait() returns.
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(_mutex);
            if (_pending.load(std::memory_order_acquire) == 0)
                return;
        }
        if (_pool.runOne(this))
            continue;
        // Our remaining tasks are running on other threads; sleep until
        // one completes (re-checked, so a spurious wake is harmless).
        std::unique_lock<std::mutex> lock(_mutex);
        if (_pending.load(std::memory_order_acquire) == 0)
            return;
        _done.wait_for(lock, std::chrono::milliseconds(1));
    }
}

void
TaskGroup::taskDone()
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
        _done.notify_all();
}

} // namespace wc3d
