/**
 * @file
 * Pure helpers of the benchmark: percentiles with enough support,
 * batch-aware FLOP rates, stage reconciliation, seed derivation and
 * the metric report with its JSON output. Nothing here touches a
 * thread or a clock, so all of it is unit-tested.
 */

#ifndef PERFBENCH_BENCH_UTIL_H
#define PERFBENCH_BENCH_UTIL_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "loadgen/test_settings.h"
#include "sim/executor.h"

namespace perfbench {

using mlperf::sim::Tick;

/** A percentile together with the sample support behind it. */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0;  //!< the percentile actually reported
    size_t n = 0;             //!< sample count
    size_t beyond = 0;        //!< samples strictly after its rank
    bool supported = false;   //!< false: too few samples for any
};

/**
 * Nearest-rank percentile @p p of @p values, lowered to the highest
 * percentile that still has at least @p min_beyond samples ranked
 * after it. A p99 therefore needs 1,000 samples; with fewer, the
 * returned Tail says which percentile was reported instead.
 */
Tail supportedPercentile(std::vector<double> values, double p,
                         size_t min_beyond = 10);

/**
 * Mean of the samples ranked at or after supportedPercentile's rank
 * (its value and the @p beyond samples above it): the tail's expected
 * value, from the same support. One more slow sample moves it by a
 * share of its size, where it moves an order statistic a whole rank,
 * so on a few hundred samples it is the steadier tail. The returned
 * Tail describes the percentile the mean starts at.
 */
Tail supportedTailMean(std::vector<double> values, double p,
                       size_t min_beyond = 10);

/** Plain nearest-rank percentile (0 for an empty input). */
double nearestRank(std::vector<double> values, double p);

/**
 * GFLOP/s of one forward pass over @p batch samples. Layer FLOP counts
 * are per sample, so the batch multiplies them.
 */
double gflopsPerSecond(uint64_t flops_per_sample, int64_t batch,
                       double seconds);

/**
 * One request's latency split into contiguous stages. @p stamps are
 * the decorator timestamps in causal order, starting at the scheduled
 * arrival; stage i spans stamps[i]..stamps[i+1]. @p end is the
 * LoadGen's own completion stamp; the residual is the part of the
 * LoadGen latency no stage covers.
 */
struct StageSplit
{
    std::vector<int64_t> stages;  //!< one per adjacent stamp pair
    int64_t latency = 0;          //!< end - stamps.front()
    int64_t residual = 0;         //!< latency - sum(stages)
    bool ordered = true;          //!< every stage >= 0
};

StageSplit splitStages(const std::vector<Tick> &stamps, Tick end);

/** splitmix64 of @p seed mixed with a stream tag. */
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

/**
 * Open-loop settings for @p count queries at @p qps: LoadGen schedule
 * and sample-index seeds derived from the benchmark seed and the
 * phase tag, no duration floor, exact query count.
 */
mlperf::loadgen::TestSettings openLoopSettings(
    mlperf::loadgen::Scenario scenario, double qps, uint64_t count,
    uint64_t seed, uint64_t phase);

/** A named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one benchmark run prints as its result line. */
struct Report
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> errors;

    void add(const std::string &name, double value,
             const std::string &unit);
    /** Record a correctness failure (makes the run incorrect). */
    void fail(const std::string &why);
    /** The final one-line JSON object. */
    std::string json() const;
};

/** JSON number with all its digits (non-finite values become 0). */
std::string jsonNumber(double value);
/** JSON string literal. */
std::string jsonString(const std::string &text);

} // namespace perfbench

#endif // PERFBENCH_BENCH_UTIL_H
