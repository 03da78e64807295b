/**
 * @file
 * Wall-clock executor backed by a timer thread.
 */

#ifndef MLPERF_SIM_REAL_EXECUTOR_H
#define MLPERF_SIM_REAL_EXECUTOR_H

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "sim/event_queue.h"

namespace mlperf {
namespace sim {

/**
 * Executor whose tick counter is wall-clock nanoseconds since run()
 * started. Events fire on the thread that called run(); schedule() may
 * be called from any thread (e.g. SUT inference workers completing
 * queries).
 *
 * Unlike VirtualExecutor, run() does not return when the queue drains —
 * a wall-clock scenario is still in flight while queries are pending —
 * it returns only on stop().
 */
class RealExecutor : public Executor
{
  public:
    Tick now() const override;
    void schedule(Tick when, Task task) override;
    void run() override;
    void stop() override;

  private:
    using Clock = std::chrono::steady_clock;

    Clock::time_point epoch_ = Clock::now();
    EventQueue queue_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool stopped_ = false;
};

} // namespace sim
} // namespace mlperf

#endif // MLPERF_SIM_REAL_EXECUTOR_H
