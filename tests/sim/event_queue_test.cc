/**
 * @file
 * Ordering properties of the two-tier EventQueue and of both executors
 * built on it: every pop order must equal a reference ordering by
 * (when, push order), whichever tier an event landed in.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/real_executor.h"
#include "sim/virtual_executor.h"

namespace mlperf {
namespace sim {
namespace {

using Key = std::pair<Tick, uint64_t>;  //!< (when, push order)

/**
 * Push times that mix the shapes the queue must handle: monotone runs
 * (a Poisson schedule), repeats of the last tick, out-of-order times
 * below it and jumps far ahead of it.
 */
class TickMix
{
  public:
    explicit TickMix(uint64_t seed) : rng_(seed) {}

    Tick
    next()
    {
        switch (rng_.nextBelow(8)) {
          case 0:  // equal tick
            break;
          case 1:  // out of order, anywhere below the cursor
            return cursor_ == 0 ? 0 : rng_.nextBelow(cursor_ + 1);
          case 2:  // jump ahead
            cursor_ += 1000 + rng_.nextBelow(10000);
            break;
          default:  // monotone run
            cursor_ += rng_.nextBelow(50);
            break;
        }
        return cursor_;
    }

  private:
    Rng rng_;
    Tick cursor_ = 0;
};

/**
 * Pop one event and check it against the reference: same time, same
 * sequence number, and the task is the one pushed with it.
 */
void
popAndCheck(EventQueue &queue, std::set<Key> &reference,
            uint64_t &ran)
{
    ASSERT_FALSE(reference.empty());
    ASSERT_EQ(queue.size(), reference.size());
    ASSERT_EQ(queue.nextWhen(), reference.begin()->first);
    EventQueue::Event event = queue.pop();
    ASSERT_EQ(event.when, reference.begin()->first);
    ASSERT_EQ(event.seq, reference.begin()->second);
    reference.erase(reference.begin());
    event.task();
    ASSERT_EQ(ran, event.seq);
}

TEST(EventQueue, PopOrderEqualsStableSortOfPushes)
{
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        TickMix mix(seed);
        EventQueue queue;
        std::vector<Key> pushed;
        uint64_t ran = 0;
        const uint64_t n = 1 + seed * 97;
        for (uint64_t i = 0; i < n; ++i) {
            const Tick when = mix.next();
            pushed.emplace_back(when, i);
            queue.push(when, [&ran, i] { ran = i; });
        }
        std::stable_sort(pushed.begin(), pushed.end(),
                         [](const Key &a, const Key &b) {
                             return a.first < b.first;
                         });
        for (const Key &expected : pushed) {
            EventQueue::Event event = queue.pop();
            ASSERT_EQ(event.when, expected.first) << "seed " << seed;
            ASSERT_EQ(event.seq, expected.second) << "seed " << seed;
            event.task();
            ASSERT_EQ(ran, expected.second);
        }
        EXPECT_TRUE(queue.empty());
    }
}

TEST(EventQueue, InterleavedPushPopMatchesReference)
{
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        TickMix mix(seed * 7919);
        Rng ops(seed);
        EventQueue queue;
        std::set<Key> reference;
        uint64_t seq = 0, ran = 0;
        for (int step = 0; step < 5000; ++step) {
            if (!reference.empty() && ops.nextBelow(3) == 0) {
                ASSERT_NO_FATAL_FAILURE(popAndCheck(queue, reference, ran));
                continue;
            }
            const Tick when = mix.next();
            const uint64_t id = seq++;
            reference.emplace(when, id);
            queue.push(when, [&ran, id] { ran = id; });
        }
        while (!reference.empty())
            ASSERT_NO_FATAL_FAILURE(popAndCheck(queue, reference, ran));
        EXPECT_TRUE(queue.empty());
    }
}

TEST(EventQueue, MonotonePushesStayOutOfTheHeap)
{
    EventQueue queue;
    for (Tick t : {5u, 5u, 7u, 7u, 7u, 9u})
        queue.push(t, [] {});
    EXPECT_EQ(queue.heapSize(), 0u);
    queue.push(6, [] {});  // below the run's tail
    EXPECT_EQ(queue.heapSize(), 1u);
    std::vector<Tick> order;
    while (!queue.empty())
        order.push_back(queue.pop().when);
    EXPECT_EQ(order, (std::vector<Tick>{5, 5, 6, 7, 7, 7, 9}));
}

TEST(EventQueue, BulkMonotoneRunInterleavedWithEarlierEvents)
{
    // The paper's Server run: 270,336 arrivals planned up front, then
    // SUT events landing between them while the run drains.
    constexpr uint64_t kArrivals = 270336;
    Rng rng(270336);
    EventQueue queue;
    std::set<Key> reference;
    uint64_t seq = 0, ran = 0;
    Tick when = 0;
    for (uint64_t i = 0; i < kArrivals; ++i) {
        when += rng.nextBelow(4) == 0 ? 0 : rng.nextBelow(5000);
        const uint64_t id = seq++;
        reference.emplace(when, id);
        queue.push(when, [&ran, id] { ran = id; });
    }
    EXPECT_EQ(queue.heapSize(), 0u);

    size_t max_heap = 0;
    while (!reference.empty()) {
        const Tick now = reference.begin()->first;
        ASSERT_NO_FATAL_FAILURE(popAndCheck(queue, reference, ran));
        // Each popped event may schedule a completion a little later
        // (or at the same tick); most land before the run's tail.
        if (rng.nextBelow(2) == 0) {
            const Tick later = now + rng.nextBelow(20000);
            const uint64_t id = seq++;
            reference.emplace(later, id);
            queue.push(later, [&ran, id] { ran = id; });
        }
        max_heap = std::max(max_heap, queue.heapSize());
    }
    EXPECT_TRUE(queue.empty());
    // Only the in-flight completions ever sat in the heap.
    EXPECT_LT(max_heap, 100u);
}

// ------------------------------------------------ executor level

/**
 * Obviously-correct executor: an ordered map keyed by (when, push
 * order), optionally clamping past times to now like VirtualExecutor.
 */
class ReferenceExecutor : public Executor
{
  public:
    explicit ReferenceExecutor(bool clamp_past) : clampPast_(clamp_past) {}

    Tick now() const override { return now_; }
    /** Without clamping it stands in for RealExecutor's ordering. */
    bool virtualTime() const override { return clampPast_; }

    void
    schedule(Tick when, Task task) override
    {
        if (clampPast_ && when < now_)
            when = now_;
        pending_.emplace(Key{when, seq_++}, std::move(task));
    }

    void
    run() override
    {
        stopped_ = false;
        while (!stopped_ && !pending_.empty()) {
            auto it = pending_.begin();
            now_ = it->first.first;
            Task task = std::move(it->second);
            pending_.erase(it);
            task();
        }
    }

    void stop() override { stopped_ = true; }

  private:
    const bool clampPast_;
    std::map<Key, Task> pending_;
    Tick now_ = 0;
    uint64_t seq_ = 0;
    bool stopped_ = false;
};

/**
 * A seeded event cascade driven through the Executor interface. The
 * initial events come from a TickMix or a monotone schedule; each
 * event, when it runs, schedules one or two children (until the event
 * budget is spent) at its own time, in the past, a little later or
 * much later. The children depend only on the parent's id, so
 * two executors with the same ordering produce the same trace.
 */
class Cascade
{
  public:
    Cascade(Executor &executor, uint64_t max_events, Tick max_tick)
        : executor_(executor), maxEvents_(max_events), maxTick_(max_tick)
    {
    }

    /** Schedule @p count initial events at TickMix times. */
    void
    seed(uint64_t count, uint64_t seed)
    {
        TickMix mix(seed);
        for (uint64_t i = 0; i < count; ++i)
            add(std::min(mix.next(), maxTick_));
    }

    /** Schedule @p count initial events at non-decreasing times. */
    void
    seedMonotone(uint64_t count, uint64_t seed)
    {
        Rng rng(seed);
        Tick when = 0;
        for (uint64_t i = 0; i < count; ++i) {
            when += rng.nextBelow(4) == 0 ? 0 : rng.nextBelow(3000);
            add(std::min(when, maxTick_));
        }
    }

    /** (id, now) per executed event; now is 0 under wall-clock time. */
    const std::vector<Key> &trace() const { return trace_; }

  private:
    void
    add(Tick when)
    {
        const uint64_t id = scheduled_++;
        executor_.schedule(when, [this, id, when] { fire(id, when); });
    }

    void
    fire(uint64_t id, Tick when)
    {
        trace_.emplace_back(
            id, executor_.virtualTime() ? executor_.now() : 0);
        uint64_t h = (id + 1) * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 29;
        const uint64_t children = 1 + h % 2;
        for (uint64_t c = 0; c < children && scheduled_ < maxEvents_; ++c) {
            const uint64_t r = h >> (8 + 12 * c);
            Tick child = when;
            switch (r % 4) {
              case 0: break;                                      // equal
              case 1: child -= std::min<Tick>(when, r % 300); break;  // past
              case 2: child += r % 40; break;                     // soon
              case 3: child += 500 + r % 5000; break;             // later
            }
            add(std::min(child, maxTick_));
        }
        // Under wall-clock time run() returns only on stop().
        if (trace_.size() == scheduled_)
            executor_.stop();
    }

    Executor &executor_;
    const uint64_t maxEvents_;
    const Tick maxTick_;
    uint64_t scheduled_ = 0;
    std::vector<Key> trace_;
};

TEST(VirtualExecutor, CascadeOrderMatchesReference)
{
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        VirtualExecutor ex;
        ReferenceExecutor ref(/*clamp_past=*/true);
        Cascade actual(ex, 20000, ~Tick{0});
        Cascade expected(ref, 20000, ~Tick{0});
        actual.seed(500, seed);
        expected.seed(500, seed);
        ex.run();
        ref.run();
        ASSERT_EQ(actual.trace().size(), 20000u) << "seed " << seed;
        EXPECT_EQ(actual.trace(), expected.trace()) << "seed " << seed;
        EXPECT_EQ(ex.eventsProcessed(), 20000u);
    }
}

TEST(VirtualExecutor, BulkArrivalsInterleavedWithCallbackEvents)
{
    // 270,336 non-decreasing arrivals scheduled before run(), like a
    // LoadGen Server run; the early ones cascade into events that land
    // between later arrivals (or in the past, clamped to now).
    constexpr uint64_t kArrivals = 270336;
    VirtualExecutor ex;
    ReferenceExecutor ref(/*clamp_past=*/true);
    Cascade actual(ex, kArrivals + 50000, ~Tick{0});
    Cascade expected(ref, kArrivals + 50000, ~Tick{0});
    actual.seedMonotone(kArrivals, 5);
    expected.seedMonotone(kArrivals, 5);
    ex.run();
    ref.run();
    ASSERT_EQ(actual.trace().size(), kArrivals + 50000);
    EXPECT_EQ(actual.trace(), expected.trace());
    EXPECT_EQ(ex.eventsProcessed(), kArrivals + 50000);
}

TEST(RealExecutor, CascadeOrderMatchesReferenceAtNearZeroDelays)
{
    // Every tick is under 1 ms and run() starts later than that, so
    // each event is due when it is pushed and the wall clock never
    // decides the order: RealExecutor must pop by (when, push order)
    // exactly, without clamping past ticks.
    constexpr Tick kMaxTick = kNsPerMs;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        RealExecutor ex;
        ReferenceExecutor ref(/*clamp_past=*/false);
        Cascade actual(ex, 3000, kMaxTick);
        Cascade expected(ref, 3000, kMaxTick);
        actual.seed(200, seed);
        expected.seed(200, seed);
        while (ex.now() <= kMaxTick)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ex.run();
        ref.run();
        ASSERT_EQ(actual.trace().size(), 3000u) << "seed " << seed;
        EXPECT_EQ(actual.trace(), expected.trace()) << "seed " << seed;
    }
}

} // namespace
} // namespace sim
} // namespace mlperf
