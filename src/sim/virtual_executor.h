/**
 * @file
 * Deterministic single-threaded discrete-event executor.
 */

#ifndef MLPERF_SIM_VIRTUAL_EXECUTOR_H
#define MLPERF_SIM_VIRTUAL_EXECUTOR_H

#include <atomic>
#include <cstdint>
#include <mutex>

#include "sim/event_queue.h"

namespace mlperf {
namespace sim {

/**
 * Discrete-event simulator: run() pops events in (time, insertion)
 * order and advances virtual time instantaneously. Equal-time events
 * run in FIFO order, which makes whole LoadGen runs bit-reproducible.
 *
 * schedule() is thread-safe so code written for RealExecutor works
 * unchanged, but in practice all virtual-mode work happens on the
 * single thread calling run().
 */
class VirtualExecutor : public Executor
{
  public:
    Tick now() const override { return now_.load(std::memory_order_acquire); }
    bool virtualTime() const override { return true; }
    void schedule(Tick when, Task task) override;
    void run() override;
    void stop() override { stopped_.store(true, std::memory_order_release); }

    /** Number of events executed so far (for tests/diagnostics). */
    uint64_t eventsProcessed() const { return eventsProcessed_; }

  private:
    EventQueue queue_;
    std::mutex mutex_;
    // now_/stopped_ are atomic so foreign threads (SUT workers) may
    // call now() and stop() without racing the event loop, matching
    // the Executor contract.
    std::atomic<Tick> now_{0};
    uint64_t eventsProcessed_ = 0;
    std::atomic<bool> stopped_{false};
};

} // namespace sim
} // namespace mlperf

#endif // MLPERF_SIM_VIRTUAL_EXECUTOR_H
