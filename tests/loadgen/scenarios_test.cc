/**
 * @file
 * Scenario-behaviour tests for the LoadGen, all in virtual time.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/logging.h"
#include "loadgen/loadgen.h"
#include "sim/virtual_executor.h"
#include "test_doubles.h"

namespace mlperf {
namespace loadgen {
namespace {

using sim::kNsPerMs;
using sim::kNsPerSec;
using testing::FakeQsl;
using testing::ParallelSut;
using testing::SerialSut;

// -------------------------------------------------------- SingleStream

TEST(SingleStream, SequentialIssueAndValidResult)
{
    sim::VirtualExecutor ex;
    SerialSut sut(ex, 10 * kNsPerMs);  // serial: detects overlap
    FakeQsl qsl(1000, 256);
    TestSettings s = TestSettings::forScenario(Scenario::SingleStream);
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);

    // 1,024 queries at 10 ms each -> runs past the 60 s floor.
    EXPECT_GE(r.queryCount, 1024u);
    EXPECT_GE(r.durationNs, 60 * kNsPerSec);
    // Single-stream never overlaps queries.
    EXPECT_EQ(sut.concurrent_, 1u);
    EXPECT_TRUE(r.valid);
    EXPECT_EQ(r.latency.p90, 10 * kNsPerMs);
    EXPECT_DOUBLE_EQ(r.scenarioMetric(),
                     static_cast<double>(10 * kNsPerMs));
}

TEST(SingleStream, MinDurationExtendsBeyondMinQueries)
{
    // Fast SUT: 1,024 queries take 1.024 s; the 60 s floor forces
    // ~60,000 queries (Sec. III-D: "All benchmarks must also run for
    // at least 60 seconds").
    sim::VirtualExecutor ex;
    ParallelSut sut(ex, 1 * kNsPerMs);
    FakeQsl qsl(1000, 256);
    TestSettings s = TestSettings::forScenario(Scenario::SingleStream);
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);
    EXPECT_GE(r.queryCount, 59000u);
    EXPECT_GE(r.durationNs, 60 * kNsPerSec);
    EXPECT_TRUE(r.valid);
}

TEST(SingleStream, MaxQueryCountCapsRun)
{
    sim::VirtualExecutor ex;
    ParallelSut sut(ex, 1 * kNsPerMs);
    FakeQsl qsl(1000, 256);
    TestSettings s = TestSettings::forScenario(Scenario::SingleStream);
    s.maxQueryCount = 50;
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);
    EXPECT_EQ(r.queryCount, 50u);
    EXPECT_TRUE(r.valid);  // capped runs are exempt from floors
}

TEST(SingleStream, NinetiethPercentileIsTheMetric)
{
    sim::VirtualExecutor ex;
    ParallelSut sut(ex, 5 * kNsPerMs);
    FakeQsl qsl(100, 64);
    TestSettings s = TestSettings::forScenario(Scenario::SingleStream);
    s.maxQueryCount = 100;
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);
    EXPECT_EQ(r.scenarioMetricLabel(), "90th percentile latency (ns)");
    EXPECT_DOUBLE_EQ(r.scenarioMetric(),
                     static_cast<double>(5 * kNsPerMs));
}

// -------------------------------------------------------------- Server

TEST(Server, PoissonArrivalsHitTargetRate)
{
    sim::VirtualExecutor ex;
    ParallelSut sut(ex, 5 * kNsPerMs);
    FakeQsl qsl(1000, 256);
    TestSettings s = TestSettings::forScenario(Scenario::Server);
    s.serverTargetQps = 200.0;
    s.targetLatencyNs = 15 * kNsPerMs;
    s.maxQueryCount = 20000;
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);
    EXPECT_EQ(r.queryCount, 20000u);
    // Realized rate within 5% of the Poisson parameter.
    const double realized =
        static_cast<double>(r.queryCount) *
        static_cast<double>(kNsPerSec) /
        static_cast<double>(r.durationNs);
    EXPECT_NEAR(realized, 200.0, 10.0);
    EXPECT_TRUE(r.valid);
    EXPECT_DOUBLE_EQ(r.scenarioMetric(), 200.0);
}

TEST(Server, OpenLoopIssuesWhileBusy)
{
    // A serial SUT with service time near the interarrival gap must
    // see concurrent queries: the LoadGen does not wait (open loop).
    sim::VirtualExecutor ex;
    SerialSut sut(ex, 9 * kNsPerMs);
    FakeQsl qsl(1000, 256);
    TestSettings s = TestSettings::forScenario(Scenario::Server);
    s.serverTargetQps = 100.0;  // 10 ms mean gap
    s.targetLatencyNs = 50 * kNsPerMs;
    s.maxQueryCount = 2000;
    LoadGen lg(ex);
    lg.startTest(sut, qsl, s);
    EXPECT_GT(sut.concurrent_, 1u);
}

TEST(Server, OverloadViolatesLatencyBound)
{
    // Arrival rate 2x the service rate: the queue grows without
    // bound and the tail blows through the QoS constraint.
    sim::VirtualExecutor ex;
    SerialSut sut(ex, 10 * kNsPerMs);  // capacity 100 qps
    FakeQsl qsl(1000, 256);
    TestSettings s = TestSettings::forScenario(Scenario::Server);
    s.serverTargetQps = 200.0;
    s.targetLatencyNs = 15 * kNsPerMs;
    s.maxQueryCount = 2000;
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);
    EXPECT_FALSE(r.latencyBoundMet);
    EXPECT_FALSE(r.valid);
    EXPECT_GT(r.overLatencyFraction, 0.5);
}

TEST(Server, UnderloadMeetsLatencyBound)
{
    sim::VirtualExecutor ex;
    SerialSut sut(ex, 2 * kNsPerMs);  // capacity 500 qps
    FakeQsl qsl(1000, 256);
    TestSettings s = TestSettings::forScenario(Scenario::Server);
    s.serverTargetQps = 100.0;
    s.targetLatencyNs = 15 * kNsPerMs;
    s.maxQueryCount = 5000;
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);
    EXPECT_TRUE(r.latencyBoundMet);
    EXPECT_TRUE(r.valid);
    EXPECT_LT(r.overLatencyFraction, 0.01);
}

TEST(Server, LatencyMeasuredFromScheduledArrival)
{
    // With a serial SUT, queueing delay counts against the latency
    // even though the LoadGen issued the query on time.
    sim::VirtualExecutor ex;
    SerialSut sut(ex, 8 * kNsPerMs);
    FakeQsl qsl(100, 64);
    TestSettings s = TestSettings::forScenario(Scenario::Server);
    s.serverTargetQps = 120.0;  // utilization ~0.96: queueing builds
    s.targetLatencyNs = 8 * kNsPerMs;
    s.maxQueryCount = 1000;
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);
    // Some queries must have waited: max latency > service time.
    EXPECT_GT(r.latency.maxNs, 8u * kNsPerMs);
}

TEST(Server, TailFieldsMatchSortedPercentiles)
{
    // The run's tail fields come from selection; recompute each one
    // from the recorded timeline by sorting.
    sim::VirtualExecutor ex;
    SerialSut sut(ex, 8 * kNsPerMs);
    FakeQsl qsl(100, 64);
    TestSettings s = TestSettings::forScenario(Scenario::Server);
    s.serverTargetQps = 115.0;  // near saturation: a long, varied tail
    s.targetLatencyNs = 40 * kNsPerMs;
    s.maxQueryCount = 3000;
    s.recordTimeline = true;
    for (double tail : {0.99, 0.9, 0.5}) {
        s.tailPercentile = tail;
        LoadGen lg(ex);
        const TestResult r = lg.startTest(sut, qsl, s);
        ASSERT_EQ(r.timeline.size(), 3000u);
        std::vector<uint64_t> scheduled, issued;
        for (const auto &q : r.timeline) {
            scheduled.push_back(q.completed - q.scheduled);
            issued.push_back(q.completed - q.issued);
        }
        std::sort(scheduled.begin(), scheduled.end());
        std::sort(issued.begin(), issued.end());
        const auto nearest = [](const std::vector<uint64_t> &sorted,
                                double p) {
            const size_t rank = static_cast<size_t>(
                std::ceil(p * static_cast<double>(sorted.size())));
            return sorted[rank - 1];
        };
        EXPECT_EQ(r.tailLatencyNs, nearest(scheduled, tail));
        EXPECT_EQ(r.correctedTailLatencyNs, nearest(scheduled, tail));
        EXPECT_EQ(r.issuedTailLatencyNs, nearest(issued, tail));
        EXPECT_EQ(r.latency.p99, nearest(scheduled, 0.99));
        EXPECT_EQ(r.latency.p50, nearest(scheduled, 0.50));
        EXPECT_EQ(r.latency.maxNs, scheduled.back());
        // Not a degenerate tail: the queue builds up.
        EXPECT_GT(r.latency.p99, r.latency.p50);
    }
}

TEST(Server, RunExtendsToMeetMinimumDuration)
{
    sim::VirtualExecutor ex;
    ParallelSut sut(ex, 1 * kNsPerMs);
    FakeQsl qsl(1000, 256);
    TestSettings s = TestSettings::forScenario(Scenario::Server);
    s.serverTargetQps = 10000.0;
    s.targetLatencyNs = 15 * kNsPerMs;
    s.minQueryCount = 1000;  // would finish in 0.1 s without the floor
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);
    EXPECT_GE(r.durationNs, 60 * kNsPerSec);
    EXPECT_GE(r.queryCount, 550000u);
    EXPECT_TRUE(r.valid);
}

// --------------------------------------------------------- MultiStream

TEST(MultiStream, FixedIntervalsAndSamplesPerQuery)
{
    sim::VirtualExecutor ex;
    ParallelSut sut(ex, 20 * kNsPerMs);  // well within 50 ms interval
    FakeQsl qsl(1000, 256);
    TestSettings s = TestSettings::forScenario(Scenario::MultiStream);
    s.multiStreamSamplesPerQuery = 8;
    s.multiStreamArrivalNs = 50 * kNsPerMs;
    s.maxQueryCount = 500;
    s.recordTimeline = true;
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);
    EXPECT_EQ(r.queryCount, 500u);
    EXPECT_EQ(sut.maxQuerySize_, 8u);
    EXPECT_EQ(r.sampleCount, 500u * 8);
    EXPECT_EQ(r.queriesWithSkippedIntervals, 0u);
    EXPECT_TRUE(r.valid);
    // Issues at exact multiples of the interval.
    ASSERT_GE(r.timeline.size(), 3u);
    EXPECT_EQ(r.timeline[1].issued - r.timeline[0].issued,
              50 * kNsPerMs);
    EXPECT_EQ(r.timeline[2].issued - r.timeline[1].issued,
              50 * kNsPerMs);
}

TEST(MultiStream, SlowSutSkipsIntervals)
{
    // 70 ms processing vs 50 ms interval: every query spills into the
    // next interval, so every query causes a skip -> invalid.
    sim::VirtualExecutor ex;
    SerialSut sut(ex, 70 * kNsPerMs);
    FakeQsl qsl(1000, 256);
    TestSettings s = TestSettings::forScenario(Scenario::MultiStream);
    s.multiStreamSamplesPerQuery = 4;
    s.multiStreamArrivalNs = 50 * kNsPerMs;
    s.maxQueryCount = 200;
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);
    EXPECT_GT(r.queriesWithSkippedIntervals, r.queryCount / 2);
    EXPECT_FALSE(r.latencyBoundMet);
    EXPECT_FALSE(r.valid);
    // Skipping delays queries: issues are 100 ms apart, not 50.
}

TEST(MultiStream, OccasionalSkipWithinOnePercentStaysValid)
{
    // 20 ms processing fits in 50 ms: no skips at all.
    sim::VirtualExecutor ex;
    SerialSut sut(ex, 20 * kNsPerMs);
    FakeQsl qsl(1000, 256);
    TestSettings s = TestSettings::forScenario(Scenario::MultiStream);
    s.multiStreamArrivalNs = 50 * kNsPerMs;
    s.maxQueryCount = 300;
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);
    EXPECT_EQ(r.queriesWithSkippedIntervals, 0u);
    EXPECT_TRUE(r.valid);
}

// ------------------------------------------------------------- Offline

TEST(Offline, SingleQueryWithAllSamples)
{
    sim::VirtualExecutor ex;
    ParallelSut sut(ex, 500 * kNsPerMs);
    FakeQsl qsl(1000, 256);
    TestSettings s = TestSettings::forScenario(Scenario::Offline);
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);
    EXPECT_EQ(r.queryCount, 1u);
    EXPECT_EQ(r.sampleCount, 24576u);
    EXPECT_EQ(sut.maxQuerySize_, 24576u);
    EXPECT_TRUE(r.valid);
    EXPECT_GT(r.completedQps, 0.0);
}

TEST(Offline, ThroughputIsSamplesOverDuration)
{
    sim::VirtualExecutor ex;
    ParallelSut sut(ex, 1 * kNsPerSec);
    FakeQsl qsl(1000, 256);
    TestSettings s = TestSettings::forScenario(Scenario::Offline);
    s.offlineSampleCount = 10000;
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);
    // All 10,000 samples complete after exactly 1 s.
    EXPECT_NEAR(r.completedQps, 10000.0, 1.0);
}

// ------------------------------------------------------ sample choice

TEST(SampleSelection, PerformanceModeDrawsFromPerformanceSet)
{
    sim::VirtualExecutor ex;
    ParallelSut sut(ex, 1 * kNsPerMs);
    FakeQsl qsl(/*total=*/10000, /*performance=*/64);
    TestSettings s = TestSettings::forScenario(Scenario::SingleStream);
    s.maxQueryCount = 500;
    LoadGen lg(ex);
    lg.startTest(sut, qsl, s);
    // Only staged samples may be referenced (Sec. IV-B).
    EXPECT_EQ(qsl.lastLoaded_.size(), 64u);
    for (QuerySampleIndex idx : sut.indices_)
        EXPECT_LT(idx, 64u);
}

TEST(SampleSelection, WithReplacementProducesDuplicates)
{
    // Sec. V-B: "inference systems may receive queries with duplicate
    // samples. This duplication is likely for high-performance
    // systems that process many samples relative to the data-set
    // size."
    sim::VirtualExecutor ex;
    ParallelSut sut(ex, 1 * kNsPerMs);
    FakeQsl qsl(10000, 32);
    TestSettings s = TestSettings::forScenario(Scenario::SingleStream);
    s.maxQueryCount = 200;
    LoadGen lg(ex);
    lg.startTest(sut, qsl, s);
    std::set<QuerySampleIndex> distinct(sut.indices_.begin(),
                                        sut.indices_.end());
    EXPECT_LT(distinct.size(), sut.indices_.size());
}

TEST(SampleSelection, UniqueModeAvoidsDuplicatesWithinSweep)
{
    sim::VirtualExecutor ex;
    ParallelSut sut(ex, 1 * kNsPerMs);
    FakeQsl qsl(10000, 256);
    TestSettings s = TestSettings::forScenario(Scenario::SingleStream);
    s.maxQueryCount = 256;
    s.sampleIndexMode =
        TestSettings::SampleIndexMode::UniqueSweep;
    LoadGen lg(ex);
    lg.startTest(sut, qsl, s);
    std::set<QuerySampleIndex> distinct(sut.indices_.begin(),
                                        sut.indices_.end());
    EXPECT_EQ(distinct.size(), sut.indices_.size());
}

TEST(SampleSelection, ScheduleSeedChangesArrivals)
{
    auto run = [](uint64_t seed) {
        sim::VirtualExecutor ex;
        ParallelSut sut(ex, 1 * kNsPerMs);
        FakeQsl qsl(1000, 64);
        TestSettings s = TestSettings::forScenario(Scenario::Server);
        s.serverTargetQps = 100;
        s.maxQueryCount = 100;
        s.scheduleSeed = seed;
        s.recordTimeline = true;
        LoadGen lg(ex);
        return lg.startTest(sut, qsl, s);
    };
    const TestResult a = run(1), b = run(1), c = run(2);
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (size_t i = 0; i < a.timeline.size(); ++i)
        EXPECT_EQ(a.timeline[i].scheduled, b.timeline[i].scheduled);
    bool differs = false;
    for (size_t i = 0; i < std::min(a.timeline.size(),
                                    c.timeline.size());
         ++i) {
        differs |= a.timeline[i].scheduled != c.timeline[i].scheduled;
    }
    EXPECT_TRUE(differs);
}

// ------------------------------------------------------ accuracy mode

TEST(AccuracyMode, SingleStreamSweepsEntireDataset)
{
    sim::VirtualExecutor ex;
    ParallelSut sut(ex, 1 * kNsPerMs);
    FakeQsl qsl(500, 64);
    TestSettings s = TestSettings::forScenario(Scenario::SingleStream);
    s.mode = TestMode::AccuracyOnly;
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);
    EXPECT_EQ(r.queryCount, 500u);
    ASSERT_EQ(r.accuracyLog.size(), 500u);
    std::set<QuerySampleIndex> seen;
    for (const auto &rec : r.accuracyLog) {
        seen.insert(rec.sampleIndex);
        // ParallelSut echoes the index as its "result".
        EXPECT_EQ(rec.data, std::to_string(rec.sampleIndex));
    }
    EXPECT_EQ(seen.size(), 500u);
    EXPECT_TRUE(r.valid);
}

TEST(AccuracyMode, OfflineSweepsInOneQuery)
{
    sim::VirtualExecutor ex;
    ParallelSut sut(ex, 1 * kNsPerMs);
    FakeQsl qsl(300, 64);
    TestSettings s = TestSettings::forScenario(Scenario::Offline);
    s.mode = TestMode::AccuracyOnly;
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);
    EXPECT_EQ(r.queryCount, 1u);
    EXPECT_EQ(r.accuracyLog.size(), 300u);
}

TEST(AccuracyMode, MultiStreamHandlesPartialFinalQuery)
{
    sim::VirtualExecutor ex;
    ParallelSut sut(ex, 1 * kNsPerMs);
    FakeQsl qsl(/*total=*/103, 64);
    TestSettings s = TestSettings::forScenario(Scenario::MultiStream);
    s.mode = TestMode::AccuracyOnly;
    s.multiStreamSamplesPerQuery = 10;
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);
    EXPECT_EQ(r.queryCount, 11u);  // 10 full + 1 partial
    EXPECT_EQ(r.accuracyLog.size(), 103u);
}

// ----------------------------------------------------------- plumbing

TEST(Plumbing, BackToBackTestsShareAnExecutor)
{
    // Regression: a second test on the same executor must anchor its
    // schedule at the current time, not absolute zero (otherwise all
    // server arrivals land in the past and fire as one burst).
    sim::VirtualExecutor ex;
    ParallelSut sut(ex, 2 * kNsPerMs);
    FakeQsl qsl(1000, 256);
    LoadGen lg(ex);

    TestSettings first =
        TestSettings::forScenario(Scenario::SingleStream);
    first.maxQueryCount = 100;
    lg.startTest(sut, qsl, first);
    EXPECT_GT(ex.now(), 0u);

    TestSettings second = TestSettings::forScenario(Scenario::Server);
    second.serverTargetQps = 100.0;
    second.targetLatencyNs = 15 * kNsPerMs;
    second.maxQueryCount = 2000;
    const TestResult r = lg.startTest(sut, qsl, second);
    // Arrivals paced at ~100 qps, not a burst: max latency stays near
    // the 2 ms service time.
    EXPECT_TRUE(r.valid);
    EXPECT_LT(r.latency.maxNs, 10 * kNsPerMs);

    TestSettings third = TestSettings::forScenario(Scenario::MultiStream);
    third.maxQueryCount = 50;
    third.recordTimeline = true;
    const TestResult ms = lg.startTest(sut, qsl, third);
    ASSERT_GE(ms.timeline.size(), 2u);
    EXPECT_EQ(ms.timeline[1].issued - ms.timeline[0].issued,
              third.multiStreamArrivalNs);
}

TEST(Plumbing, FlushCalledOnceAtEnd)
{
    sim::VirtualExecutor ex;
    ParallelSut sut(ex, 1 * kNsPerMs);
    FakeQsl qsl(100, 64);
    TestSettings s = TestSettings::forScenario(Scenario::SingleStream);
    s.maxQueryCount = 10;
    LoadGen lg(ex);
    lg.startTest(sut, qsl, s);
    EXPECT_TRUE(sut.flushed_);
    // Staged samples are released when the run ends.
    EXPECT_EQ(qsl.unloadedCount_, qsl.loadedCount_);
    EXPECT_EQ(qsl.loadedCount_, 64u);
}

TEST(Plumbing, RunsAreLogged)
{
    std::vector<std::string> messages;
    auto old_sink = Logger::setSink(
        [&](LogLevel, const std::string &msg) {
            messages.push_back(msg);
        });
    const LogLevel old_level = Logger::level();
    Logger::setLevel(LogLevel::Info);
    {
        sim::VirtualExecutor ex;
        ParallelSut sut(ex, 1 * kNsPerMs);
        FakeQsl qsl(100, 64);
        TestSettings s =
            TestSettings::forScenario(Scenario::SingleStream);
        s.maxQueryCount = 10;
        LoadGen lg(ex);
        lg.startTest(sut, qsl, s);
    }
    Logger::setSink(old_sink);
    Logger::setLevel(old_level);
    ASSERT_GE(messages.size(), 2u);
    EXPECT_NE(messages.front().find("starting SingleStream"),
              std::string::npos);
    EXPECT_NE(messages.back().find("VALID"), std::string::npos);
}

TEST(Plumbing, SummaryContainsKeyFields)
{
    sim::VirtualExecutor ex;
    ParallelSut sut(ex, 1 * kNsPerMs);
    FakeQsl qsl(100, 64);
    TestSettings s = TestSettings::forScenario(Scenario::SingleStream);
    s.maxQueryCount = 10;
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);
    const std::string summary = r.summary();
    EXPECT_NE(summary.find("MLPerf Results Summary"),
              std::string::npos);
    EXPECT_NE(summary.find("SingleStream"), std::string::npos);
    EXPECT_NE(summary.find("VALID"), std::string::npos);
    EXPECT_NE(summary.find("parallel-sut"), std::string::npos);
}

} // namespace
} // namespace loadgen
} // namespace mlperf
