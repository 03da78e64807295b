/**
 * @file
 * Tests for nearest-rank percentiles and latency summaries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "stats/percentile.h"

namespace mlperf {
namespace stats {
namespace {

TEST(Percentile, SingleElement)
{
    std::vector<uint64_t> v = {42};
    EXPECT_EQ(percentile(v, 0.5), 42u);
    EXPECT_EQ(percentile(v, 0.9), 42u);
    EXPECT_EQ(percentile(v, 1.0), 42u);
}

TEST(Percentile, NearestRankDefinition)
{
    // 10 samples: p90 is the 9th smallest (ceil(0.9*10)=9).
    std::vector<uint64_t> v = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
    EXPECT_EQ(percentile(v, 0.90), 90u);
    EXPECT_EQ(percentile(v, 0.91), 100u);
    EXPECT_EQ(percentile(v, 0.50), 50u);
    EXPECT_EQ(percentile(v, 0.10), 10u);
    EXPECT_EQ(percentile(v, 1.00), 100u);
}

TEST(Percentile, UnsortedInputHandled)
{
    std::vector<uint64_t> v = {5, 1, 4, 2, 3};
    EXPECT_EQ(percentile(v, 0.5), 3u);
    EXPECT_EQ(percentile(v, 1.0), 5u);
}

TEST(Percentile, NinetiethOfUniformRange)
{
    std::vector<uint64_t> v;
    for (uint64_t i = 1; i <= 1000; ++i)
        v.push_back(i);
    EXPECT_EQ(percentile(v, 0.90), 900u);
    EXPECT_EQ(percentile(v, 0.99), 990u);
    EXPECT_EQ(percentile(v, 0.999), 999u);
}

TEST(LatencySummary, Fields)
{
    std::vector<uint64_t> v;
    for (uint64_t i = 1; i <= 100; ++i)
        v.push_back(i * 10);
    const auto s = LatencySummary::from(v);
    EXPECT_EQ(s.count, 100u);
    EXPECT_EQ(s.minNs, 10u);
    EXPECT_EQ(s.maxNs, 1000u);
    EXPECT_DOUBLE_EQ(s.meanNs, 505.0);
    EXPECT_EQ(s.p50, 500u);
    EXPECT_EQ(s.p90, 900u);
    EXPECT_EQ(s.p99, 990u);
}

TEST(LatencySummary, EmptyInput)
{
    const auto s = LatencySummary::from({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.minNs, 0u);
    EXPECT_EQ(s.maxNs, 0u);
}

TEST(FractionOver, StrictBound)
{
    std::vector<uint64_t> v = {10, 20, 30, 40};
    EXPECT_DOUBLE_EQ(fractionOver(v, 40), 0.0);   // none strictly over
    EXPECT_DOUBLE_EQ(fractionOver(v, 39), 0.25);
    EXPECT_DOUBLE_EQ(fractionOver(v, 9), 1.0);
    EXPECT_DOUBLE_EQ(fractionOver({}, 0), 0.0);
}

TEST(FractionOver, ConsistentWithPercentile)
{
    // If p90 = x then at most 10% of samples exceed x.
    Rng rng(101);
    std::vector<uint64_t> v;
    for (int i = 0; i < 5000; ++i)
        v.push_back(rng.nextBelow(1000000));
    const uint64_t p90 = percentile(v, 0.90);
    EXPECT_LE(fractionOver(v, p90), 0.10);
}

/** Nearest rank by the definition: sort, then index ceil(p * n). */
uint64_t
sortedNearestRank(std::vector<uint64_t> v, double p)
{
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * static_cast<double>(v.size()));
    const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

TEST(Percentile, SelectionEqualsSortedNearestRank)
{
    // Heavy duplicates (values from 0..3), wide values, every size up
    // to 300 plus a few large ones, and p from the smallest positive
    // double up to 1.
    const std::vector<double> ps = {
        std::numeric_limits<double>::denorm_min(), 1e-12, 1e-3, 0.1,
        0.5, 0.9, 0.97, 0.99, 0.999, 1.0 - 1e-12, 1.0};
    Rng rng(2020);
    std::vector<size_t> sizes;
    for (size_t n = 1; n <= 300; ++n)
        sizes.push_back(n);
    sizes.insert(sizes.end(), {1000, 4097, 65536});
    for (size_t n : sizes) {
        for (uint64_t range : {uint64_t{4}, uint64_t{1} << 40}) {
            std::vector<uint64_t> v(n);
            for (auto &x : v)
                x = rng.nextBelow(range);
            const std::vector<uint64_t> before = v;
            for (double p : ps) {
                ASSERT_EQ(percentile(v, p), sortedNearestRank(v, p))
                    << "n " << n << " p " << p << " range " << range;
            }
            const double p = 1e-6 + rng.nextDouble() * (1.0 - 1e-6);
            ASSERT_EQ(percentile(v, p), sortedNearestRank(v, p))
                << "n " << n << " p " << p;
            ASSERT_EQ(v, before);  // the input is not reordered
        }
    }
}

TEST(Percentile, SingleElementAtExtremeRanks)
{
    const std::vector<uint64_t> v = {7};
    EXPECT_EQ(percentile(v, std::numeric_limits<double>::denorm_min()),
              7u);
    EXPECT_EQ(percentile(v, 1.0), 7u);
}

TEST(Percentile, AllEqualValues)
{
    const std::vector<uint64_t> v(1001, 5);
    for (double p : {1e-9, 0.5, 0.99, 1.0})
        EXPECT_EQ(percentile(v, p), 5u);
}

} // namespace
} // namespace stats
} // namespace mlperf
