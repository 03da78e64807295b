#include "sim/virtual_executor.h"

#include <cassert>

namespace mlperf {
namespace sim {

void
VirtualExecutor::schedule(Tick when, Task task)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Events "in the past" run now; virtual time never goes backwards.
    const Tick current = now_.load(std::memory_order_relaxed);
    if (when < current)
        when = current;
    queue_.push(when, std::move(task));
}

void
VirtualExecutor::run()
{
    stopped_.store(false, std::memory_order_release);
    while (!stopped_.load(std::memory_order_acquire)) {
        Task task;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (queue_.empty())
                break;
            EventQueue::Event next = queue_.pop();
            now_.store(next.when, std::memory_order_release);
            task = std::move(next.task);
        }
        ++eventsProcessed_;
        task();
    }
}

} // namespace sim
} // namespace mlperf
