#include "sim/real_executor.h"

namespace mlperf {
namespace sim {

Tick
RealExecutor::now() const
{
    return static_cast<Tick>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_).count());
}

void
RealExecutor::schedule(Tick when, Task task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push(when, std::move(task));
    }
    cv_.notify_one();
}

void
RealExecutor::run()
{
    std::unique_lock<std::mutex> lock(mutex_);
    stopped_ = false;
    while (!stopped_) {
        if (queue_.empty()) {
            cv_.wait(lock);
            continue;
        }
        const Tick due = queue_.nextWhen();
        const Tick current = now();
        if (due > current) {
            // Sleep until the event is due or a new earlier event /
            // stop request arrives.
            cv_.wait_for(lock, std::chrono::nanoseconds(due - current));
            continue;
        }
        Task task = queue_.pop().task;
        lock.unlock();
        task();
        lock.lock();
    }
}

void
RealExecutor::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopped_ = true;
    }
    cv_.notify_all();
}

} // namespace sim
} // namespace mlperf
