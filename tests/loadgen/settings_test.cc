/**
 * @file
 * Tests for TestSettings defaults, the config parser, schedule
 * generation, and validity determination.
 */

#include <gtest/gtest.h>

#include <set>
#include <cmath>
#include <stdexcept>

#include "loadgen/results.h"
#include "loadgen/schedule.h"
#include "loadgen/test_settings.h"

namespace mlperf {
namespace loadgen {
namespace {

using sim::kNsPerMs;
using sim::kNsPerSec;

TEST(Defaults, ScenarioFloorsMatchPaper)
{
    // Table V: single-stream 1K queries, server/multistream 270K,
    // offline 1 query / 24K samples.
    const auto ss = TestSettings::forScenario(Scenario::SingleStream);
    EXPECT_EQ(ss.minQueryCount, 1024u);
    EXPECT_DOUBLE_EQ(ss.tailPercentile, 0.90);

    const auto server = TestSettings::forScenario(Scenario::Server);
    EXPECT_EQ(server.minQueryCount, 270336u);
    EXPECT_DOUBLE_EQ(server.tailPercentile, 0.99);

    const auto ms = TestSettings::forScenario(Scenario::MultiStream);
    EXPECT_EQ(ms.minQueryCount, 270336u);

    const auto off = TestSettings::forScenario(Scenario::Offline);
    EXPECT_EQ(off.minQueryCount, 1u);
    EXPECT_EQ(off.offlineSampleCount, 24576u);

    EXPECT_EQ(ss.minDurationNs, 60u * kNsPerSec);
}

TEST(Config, ParsesKeysAndComments)
{
    TestSettings s;
    s.applyConfig("# comment line\n"
                  "scenario = Server\n"
                  "server_target_qps = 123.5\n"
                  "target_latency_ms = 15\n"
                  "min_query_count = 100  # trailing comment\n"
                  "sample_index_mode = unique\n"
                  "\n");
    EXPECT_EQ(s.scenario, Scenario::Server);
    EXPECT_DOUBLE_EQ(s.serverTargetQps, 123.5);
    EXPECT_EQ(s.targetLatencyNs, 15u * kNsPerMs);
    EXPECT_EQ(s.minQueryCount, 100u);
    EXPECT_EQ(s.sampleIndexMode,
              TestSettings::SampleIndexMode::UniqueSweep);
}

TEST(Config, RejectsUnknownKeysAndValues)
{
    TestSettings s;
    EXPECT_THROW(s.applyConfig("bogus_key = 1\n"),
                 std::invalid_argument);
    EXPECT_THROW(s.applyConfig("scenario = Sideways\n"),
                 std::invalid_argument);
    EXPECT_THROW(s.applyConfig("no equals sign\n"),
                 std::invalid_argument);
}

TEST(Config, AllDocumentedKeysAccepted)
{
    TestSettings s;
    s.applyConfig("scenario = MultiStream\n"
                  "mode = AccuracyOnly\n"
                  "samples_per_query = 16\n"
                  "multistream_arrival_ms = 66\n"
                  "tail_percentile = 0.97\n"
                  "max_over_latency_fraction = 0.03\n"
                  "min_duration_ms = 1000\n"
                  "offline_sample_count = 4096\n"
                  "max_query_count = 77\n"
                  "sample_index_seed = 5\n"
                  "schedule_seed = 6\n"
                  "record_timeline = 1\n");
    EXPECT_EQ(s.mode, TestMode::AccuracyOnly);
    EXPECT_EQ(s.multiStreamSamplesPerQuery, 16u);
    EXPECT_EQ(s.multiStreamArrivalNs, 66u * kNsPerMs);
    EXPECT_DOUBLE_EQ(s.tailPercentile, 0.97);
    EXPECT_DOUBLE_EQ(s.maxOverLatencyFraction, 0.03);
    EXPECT_EQ(s.minDurationNs, 1000u * kNsPerMs);
    EXPECT_EQ(s.offlineSampleCount, 4096u);
    EXPECT_EQ(s.maxQueryCount, 77u);
    EXPECT_EQ(s.sampleIndexSeed, 5u);
    EXPECT_EQ(s.scheduleSeed, 6u);
    EXPECT_TRUE(s.recordTimeline);
}

// ----------------------------------------------------------- schedule

TEST(Schedule, SampleIndicesDeterministicAndInRange)
{
    constexpr auto kRandom =
        TestSettings::SampleIndexMode::RandomWithReplacement;
    const auto a = generateSampleIndices(1000, 64, 42, kRandom);
    const auto b = generateSampleIndices(1000, 64, 42, kRandom);
    EXPECT_EQ(a, b);
    for (auto idx : a)
        EXPECT_LT(idx, 64u);
    const auto c = generateSampleIndices(1000, 64, 43, kRandom);
    EXPECT_NE(a, c);
}

TEST(Schedule, SameIndexModeRepeatsOneSample)
{
    const auto idx = generateSampleIndices(
        100, 64, 5, TestSettings::SampleIndexMode::SameIndex);
    ASSERT_EQ(idx.size(), 100u);
    for (auto i : idx)
        EXPECT_EQ(i, idx[0]);
    EXPECT_LT(idx[0], 64u);
}

TEST(Schedule, UniqueIndicesCoverPopulationPerSweep)
{
    const auto idx = generateSampleIndices(
        128, 64, 7, TestSettings::SampleIndexMode::UniqueSweep);
    std::set<QuerySampleIndex> first(idx.begin(), idx.begin() + 64);
    std::set<QuerySampleIndex> second(idx.begin() + 64, idx.end());
    EXPECT_EQ(first.size(), 64u);   // each sweep is a permutation
    EXPECT_EQ(second.size(), 64u);
}

TEST(Schedule, AccuracySweepIsIdentity)
{
    const auto idx = accuracySweepIndices(5);
    EXPECT_EQ(idx, (std::vector<QuerySampleIndex>{0, 1, 2, 3, 4}));
}

TEST(Schedule, PoissonArrivalsHaveCorrectMeanGap)
{
    const double qps = 250.0;
    const auto arrivals = generatePoissonArrivals(100000, qps, 99);
    // Mean gap = total span / (n-1) should be ~1/qps seconds.
    const double span_s =
        static_cast<double>(arrivals.back() - arrivals.front()) /
        static_cast<double>(kNsPerSec);
    EXPECT_NEAR(span_s / 99999.0, 1.0 / qps, 0.1 / qps);
    // Strictly nondecreasing.
    for (size_t i = 1; i < 1000; ++i)
        EXPECT_GE(arrivals[i], arrivals[i - 1]);
}

TEST(Schedule, PoissonGapsAreExponential)
{
    // Coefficient of variation of exponential gaps is 1.
    const auto arrivals = generatePoissonArrivals(50000, 100.0, 7);
    double sum = 0.0, sum_sq = 0.0;
    for (size_t i = 1; i < arrivals.size(); ++i) {
        const double gap =
            static_cast<double>(arrivals[i] - arrivals[i - 1]);
        sum += gap;
        sum_sq += gap * gap;
    }
    const double n = static_cast<double>(arrivals.size() - 1);
    const double mean = sum / n;
    const double var = sum_sq / n - mean * mean;
    EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05);
}

TEST(Schedule, FixedArrivalsAreExactMultiples)
{
    const auto arrivals = generateFixedArrivals(5, 50 * kNsPerMs);
    for (uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(arrivals[i], i * 50 * kNsPerMs);
}

// ----------------------------------------------------------- validity

TEST(Validity, AllConstraintsRequired)
{
    TestSettings s = TestSettings::forScenario(Scenario::Server);
    s.maxOverLatencyFraction = 0.01;

    TestResult r;
    r.queryCount = 270336;
    r.durationNs = 61 * kNsPerSec;
    r.overLatencyFraction = 0.005;
    determineValidity(r, s);
    EXPECT_TRUE(r.valid);

    TestResult short_run = r;
    short_run.durationNs = 59 * kNsPerSec;
    determineValidity(short_run, s);
    EXPECT_FALSE(short_run.valid);
    EXPECT_FALSE(short_run.minDurationMet);

    TestResult few_queries = r;
    few_queries.queryCount = 1000;
    determineValidity(few_queries, s);
    EXPECT_FALSE(few_queries.valid);
    EXPECT_FALSE(few_queries.minQueriesMet);

    TestResult over_latency = r;
    over_latency.overLatencyFraction = 0.011;
    determineValidity(over_latency, s);
    EXPECT_FALSE(over_latency.valid);
    EXPECT_FALSE(over_latency.latencyBoundMet);
}

TEST(Validity, TranslationAllowsThreePercent)
{
    // Sec. III-C: "no more than 3% may do so for translation."
    TestSettings s = TestSettings::forScenario(Scenario::Server);
    s.maxOverLatencyFraction = 0.03;
    TestResult r;
    r.queryCount = 270336;
    r.durationNs = 61 * kNsPerSec;
    r.overLatencyFraction = 0.02;
    determineValidity(r, s);
    EXPECT_TRUE(r.valid);
}

TEST(Validity, MultiStreamSkipRule)
{
    TestSettings s = TestSettings::forScenario(Scenario::MultiStream);
    TestResult r;
    r.queryCount = 270336;
    r.durationNs = 61 * kNsPerSec;
    r.queriesWithSkippedIntervals = 2703;  // exactly 1%
    determineValidity(r, s);
    EXPECT_TRUE(r.valid);
    r.queriesWithSkippedIntervals = 2800;  // > 1%
    determineValidity(r, s);
    EXPECT_FALSE(r.valid);
}

TEST(Validity, OfflineFloorIsOnSamples)
{
    TestSettings s = TestSettings::forScenario(Scenario::Offline);
    TestResult r;
    r.queryCount = 1;
    r.sampleCount = 24576;
    r.durationNs = 1 * kNsPerSec;  // duration floor does not apply
    determineValidity(r, s);
    EXPECT_TRUE(r.valid);
    r.sampleCount = 10000;
    determineValidity(r, s);
    EXPECT_FALSE(r.valid);
}

TEST(Validity, OfflineErrorSamplesVoidTheRun)
{
    // Offline has no latency bound to charge an error response
    // against, so one shed, timed-out or failed sample voids the run.
    TestSettings s = TestSettings::forScenario(Scenario::Offline);
    TestResult r;
    r.scenario = Scenario::Offline;
    r.queryCount = 1;
    r.sampleCount = 24576;
    determineValidity(r, s);
    EXPECT_TRUE(r.valid);
    r.degradedSamples = 10;  // served by a fallback: still an answer
    determineValidity(r, s);
    EXPECT_TRUE(r.valid);
    for (uint64_t TestResult::*errors :
         {&TestResult::shedSamples, &TestResult::timeoutSamples,
          &TestResult::failedSamples}) {
        r.*errors = 1;
        determineValidity(r, s);
        EXPECT_FALSE(r.valid);
        EXPECT_TRUE(r.minQueriesMet && r.minDurationMet &&
                    r.latencyBoundMet);
        EXPECT_NE(r.summary().find("1 samples completed with an error"),
                  std::string::npos);
        r.*errors = 0;
    }
}

TEST(ScenarioNames, AllNamed)
{
    EXPECT_EQ(scenarioName(Scenario::SingleStream), "SingleStream");
    EXPECT_EQ(scenarioName(Scenario::MultiStream), "MultiStream");
    EXPECT_EQ(scenarioName(Scenario::Server), "Server");
    EXPECT_EQ(scenarioName(Scenario::Offline), "Offline");
    EXPECT_EQ(testModeName(TestMode::PerformanceOnly),
              "PerformanceOnly");
    EXPECT_EQ(testModeName(TestMode::AccuracyOnly), "AccuracyOnly");
}

} // namespace
} // namespace loadgen
} // namespace mlperf
