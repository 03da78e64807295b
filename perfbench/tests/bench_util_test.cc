#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "loadgen/schedule.h"

using namespace perfbench;
namespace loadgen = mlperf::loadgen;

namespace {

std::vector<double>
oneTo(int n)
{
    std::vector<double> v(static_cast<size_t>(n));
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

} // namespace

TEST(SupportedPercentile, P99WithEnoughSamples)
{
    const Tail t = supportedPercentile(oneTo(1000), 0.99);
    EXPECT_TRUE(t.supported);
    EXPECT_DOUBLE_EQ(t.value, 990.0);
    EXPECT_DOUBLE_EQ(t.percentile, 0.99);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_EQ(t.n, 1000u);
}

TEST(SupportedPercentile, LowersToKeepTenBeyond)
{
    const Tail t = supportedPercentile(oneTo(500), 0.99);
    EXPECT_TRUE(t.supported);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_DOUBLE_EQ(t.value, 490.0);
    EXPECT_DOUBLE_EQ(t.percentile, 0.98);
}

TEST(SupportedPercentile, OrderOfInputDoesNotMatter)
{
    std::vector<double> v = oneTo(2000);
    std::reverse(v.begin(), v.end());
    EXPECT_DOUBLE_EQ(supportedPercentile(v, 0.99).value, 1980.0);
    EXPECT_DOUBLE_EQ(supportedPercentile(v, 0.5).value, 1000.0);
}

TEST(SupportedPercentile, TooFewSamplesSupportNothing)
{
    EXPECT_FALSE(supportedPercentile(oneTo(10), 0.5).supported);
    EXPECT_FALSE(supportedPercentile({}, 0.5).supported);
    EXPECT_TRUE(supportedPercentile(oneTo(11), 0.5).supported);
    EXPECT_DOUBLE_EQ(supportedPercentile(oneTo(11), 0.99).value, 1.0);
}

TEST(SupportedTailMean, AveragesFromThePercentileUp)
{
    const Tail t = supportedTailMean(oneTo(1000), 0.99);
    EXPECT_TRUE(t.supported);
    EXPECT_DOUBLE_EQ(t.value, 995.0);  // mean of 990..1000
    EXPECT_DOUBLE_EQ(t.percentile, 0.99);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(SupportedTailMean, SharesTheLoweredSupport)
{
    std::vector<double> v = oneTo(500);
    std::reverse(v.begin(), v.end());
    const Tail t = supportedTailMean(v, 0.99);
    EXPECT_DOUBLE_EQ(t.percentile, 0.98);
    EXPECT_DOUBLE_EQ(t.value, 495.0);  // mean of 490..500
    EXPECT_FALSE(supportedTailMean(oneTo(10), 0.99).supported);
}

TEST(SupportedTailMean, OneOutlierMovesItByItsShare)
{
    std::vector<double> v = oneTo(100);
    const double before = supportedTailMean(v, 0.99).value;
    v.back() += 110.0;
    EXPECT_DOUBLE_EQ(supportedTailMean(v, 0.99).value, before + 10.0);
    EXPECT_DOUBLE_EQ(supportedPercentile(v, 0.99).value, 90.0);
}

TEST(Gflops, CountsEverySampleOfTheBatch)
{
    EXPECT_DOUBLE_EQ(gflopsPerSecond(1000000000, 8, 1.0), 8.0);
    // Eight samples in eight times the time is the same rate.
    EXPECT_DOUBLE_EQ(gflopsPerSecond(9293824, 8, 8e-3),
                     gflopsPerSecond(9293824, 1, 1e-3));
    EXPECT_DOUBLE_EQ(gflopsPerSecond(100, 1, 0.0), 0.0);
}

TEST(SplitStages, StagesTelescopeToTheLatency)
{
    const StageSplit s = splitStages({100, 110, 125, 140}, 145);
    ASSERT_EQ(s.stages.size(), 3u);
    EXPECT_EQ(s.stages[0], 10);
    EXPECT_EQ(s.stages[1], 15);
    EXPECT_EQ(s.stages[2], 15);
    EXPECT_EQ(s.latency, 45);
    EXPECT_EQ(s.residual, 5);
    EXPECT_TRUE(s.ordered);
}

TEST(SplitStages, OutOfOrderStampIsFlagged)
{
    const StageSplit s = splitStages({100, 130, 120, 140}, 140);
    EXPECT_FALSE(s.ordered);
    EXPECT_EQ(s.stages[1], -10);
    EXPECT_EQ(s.residual, 0);
}

TEST(SplitStages, EndBeforeLastStampGivesNegativeResidual)
{
    const StageSplit s = splitStages({0, 50}, 40);
    EXPECT_EQ(s.residual, -10);
}

TEST(Seeds, SameSeedGivesSameSchedule)
{
    const auto a = openLoopSettings(loadgen::Scenario::Server, 2500.0,
                                    1000, 7, 2);
    const auto b = openLoopSettings(loadgen::Scenario::Server, 2500.0,
                                    1000, 7, 2);
    EXPECT_EQ(loadgen::generatePoissonArrivals(1000, a.serverTargetQps,
                                               a.scheduleSeed),
              loadgen::generatePoissonArrivals(1000, b.serverTargetQps,
                                               b.scheduleSeed));
    EXPECT_EQ(loadgen::generateSampleIndices(
                  1000, 80, a.sampleIndexSeed, a.sampleIndexMode),
              loadgen::generateSampleIndices(
                  1000, 80, b.sampleIndexSeed, b.sampleIndexMode));
}

TEST(Seeds, OtherSeedOrPhaseGivesOtherSchedule)
{
    const auto a = openLoopSettings(loadgen::Scenario::Server, 2500.0,
                                    1000, 7, 2);
    const auto b = openLoopSettings(loadgen::Scenario::Server, 2500.0,
                                    1000, 8, 2);
    const auto c = openLoopSettings(loadgen::Scenario::Server, 2500.0,
                                    1000, 7, 3);
    const auto arrivals = [](const loadgen::TestSettings &s) {
        return loadgen::generatePoissonArrivals(1000, s.serverTargetQps,
                                                s.scheduleSeed);
    };
    EXPECT_NE(arrivals(a), arrivals(b));
    EXPECT_NE(arrivals(a), arrivals(c));
    EXPECT_NE(a.scheduleSeed, a.sampleIndexSeed);
}

TEST(Seeds, OpenLoopSettingsIssueExactlyCount)
{
    const auto s = openLoopSettings(loadgen::Scenario::TokenStream, 250.0,
                                    123, 1, 0);
    EXPECT_EQ(s.minQueryCount, 123u);
    EXPECT_EQ(s.maxQueryCount, 123u);
    EXPECT_EQ(s.minDurationNs, 0u);
    EXPECT_TRUE(s.recordTimeline);
}

TEST(Report, JsonHasTheResultKeys)
{
    Report r;
    r.attempted = 10;
    r.failed = 1;
    r.add("latency_ms", 1.25, "ms");
    EXPECT_EQ(r.json(),
              "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
              "\"metrics\": {\"latency_ms\": {\"value\": 1.25, "
              "\"unit\": \"ms\"}}}");
    r.fail("wrong answer");
    EXPECT_FALSE(r.correct);
}

TEST(Json, NumbersKeepAllDigits)
{
    EXPECT_EQ(jsonNumber(419.59051003979465), "419.59051003979465");
    EXPECT_EQ(jsonString("a\"b"), "\"a\\\"b\"");
}
