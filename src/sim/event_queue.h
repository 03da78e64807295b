/**
 * @file
 * The pending-event store shared by VirtualExecutor and RealExecutor.
 */

#ifndef MLPERF_SIM_EVENT_QUEUE_H
#define MLPERF_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "sim/executor.h"

namespace mlperf {
namespace sim {

/**
 * Priority queue of timed tasks, popped in (when, seq) order, where
 * seq is the push order. Equal-time events therefore pop FIFO.
 *
 * Two tiers hold the events:
 *  - the run, an append-only FIFO that takes every push whose time is
 *    >= the run's last time. Sequence numbers only grow, so the run
 *    stays sorted by (when, seq) and push/pop on it are O(1);
 *  - a binary heap that takes every other push, at O(log h) for the
 *    h events it holds.
 * pop() takes the smaller head of the two, so the pop order is exactly
 * that of a single heap over all events. A LoadGen's arrival schedule
 * is non-decreasing and lands in the run whole; the heap holds only
 * the SUT's in-flight events that fall before the last arrival.
 *
 * Not thread-safe: the executors guard it with their own mutex.
 */
class EventQueue
{
  public:
    using Task = Executor::Task;

    struct Event
    {
        Tick when;
        uint64_t seq;
        Task task;
    };

    bool empty() const { return runEmpty() && heap_.empty(); }
    size_t size() const { return (run_ ? run_->size() : 0) + heap_.size(); }

    /** Events held by the heap tier (for tests and diagnostics). */
    size_t heapSize() const { return heap_.size(); }

    void
    push(Tick when, Task task)
    {
        if (runEmpty() || when >= run_->back().when) {
            if (!run_)
                run_.emplace();
            run_->push_back(Event{when, nextSeq_++, std::move(task)});
            return;
        }
        heap_.push_back(Event{when, nextSeq_++, std::move(task)});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    /** The next event's time. Requires !empty(). */
    Tick nextWhen() const { return head().when; }

    /** Remove and return the next event. Requires !empty(). */
    Event
    pop()
    {
        assert(!empty());
        if (runFirst()) {
            Event event = std::move(run_->front());
            run_->pop_front();
            return event;
        }
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        Event event = std::move(heap_.back());
        heap_.pop_back();
        return event;
    }

  private:
    /** Max-heap comparator that puts the smallest (when, seq) on top. */
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    bool runEmpty() const { return !run_ || run_->empty(); }

    bool
    runFirst() const
    {
        if (heap_.empty())
            return true;
        if (runEmpty())
            return false;
        return Later{}(heap_.front(), run_->front());
    }

    const Event &
    head() const
    {
        assert(!empty());
        return runFirst() ? run_->front() : heap_.front();
    }

    // Engaged on the first push: a default-constructed std::deque
    // allocates, and the LoadGen's searches build an executor per probe.
    std::optional<std::deque<Event>> run_;
    std::vector<Event> heap_;
    uint64_t nextSeq_ = 0;
};

} // namespace sim
} // namespace mlperf

#endif // MLPERF_SIM_EVENT_QUEUE_H
