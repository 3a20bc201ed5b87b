/**
 * @file
 * A fixed-size thread pool used by runSweepChecked (sweep.h).
 *
 * Deliberately minimal: submit() enqueues fire-and-forget tasks, wait()
 * blocks until every submitted task has finished. Tasks must not throw —
 * callers that can fail catch inside the task (runSweepChecked turns
 * every exception into a JobError).
 */

#ifndef UDP_SIM_POOL_H
#define UDP_SIM_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace udp {

/** Fixed-size worker pool over a FIFO task queue. */
class ThreadPool
{
  public:
    /** Spawns @p num_threads workers (at least one). */
    explicit ThreadPool(unsigned num_threads)
    {
        if (num_threads == 0) {
            num_threads = 1;
        }
        workers.reserve(num_threads);
        for (unsigned i = 0; i < num_threads; ++i) {
            workers.emplace_back([this] { workerLoop(); });
        }
    }

    /** Drains the queue, then joins all workers. */
    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lock(mtx);
            stopping = true;
        }
        taskReady.notify_all();
        for (std::thread& w : workers) {
            w.join();
        }
    }

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Enqueues @p task for execution by any worker. */
    void submit(std::function<void()> task)
    {
        {
            std::lock_guard<std::mutex> lock(mtx);
            queue.push_back(std::move(task));
            ++unfinished;
        }
        taskReady.notify_one();
    }

    /** Blocks until every task submitted so far has completed. */
    void wait()
    {
        std::unique_lock<std::mutex> lock(mtx);
        allDone.wait(lock, [this] { return unfinished == 0; });
    }

    std::size_t numThreads() const { return workers.size(); }

  private:
    void workerLoop()
    {
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mtx);
                taskReady.wait(lock,
                               [this] { return stopping || !queue.empty(); });
                if (queue.empty()) {
                    return; // stopping and drained
                }
                task = std::move(queue.front());
                queue.pop_front();
            }
            task();
            {
                std::lock_guard<std::mutex> lock(mtx);
                if (--unfinished == 0) {
                    allDone.notify_all();
                }
            }
        }
    }

    std::mutex mtx;
    std::condition_variable taskReady;
    std::condition_variable allDone;
    std::deque<std::function<void()>> queue;
    std::vector<std::thread> workers;
    std::size_t unfinished = 0;
    bool stopping = false;
};

} // namespace udp

#endif // UDP_SIM_POOL_H
