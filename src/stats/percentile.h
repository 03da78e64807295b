/**
 * @file
 * Percentile and summary statistics over latency samples.
 *
 * The LoadGen reports 50/90/95/97/99/99.9th percentile latencies and the
 * scenario validity checks compare the observed tail against the QoS
 * bound, so percentile semantics must be precise: we use the
 * nearest-rank definition on the sorted sample (the real LoadGen does
 * the same), which is conservative for small samples.
 */

#ifndef MLPERF_STATS_PERCENTILE_H
#define MLPERF_STATS_PERCENTILE_H

#include <cstdint>
#include <vector>

namespace mlperf {
namespace stats {

/**
 * Nearest-rank percentile: the smallest value such that at least
 * p fraction of samples are <= it. @p p in (0, 1].
 * The input vector is copied and the rank found by selection
 * (std::nth_element, linear time); for several percentiles of the
 * same data use LatencySummary, which sorts once.
 */
uint64_t percentile(const std::vector<uint64_t> &samples, double p);

/** As above but on a pre-sorted ascending vector, no copy. */
uint64_t percentileSorted(const std::vector<uint64_t> &sorted, double p);

/** One-pass summary of a latency population. */
struct LatencySummary
{
    uint64_t count = 0;
    uint64_t minNs = 0;
    uint64_t maxNs = 0;
    double meanNs = 0.0;
    uint64_t p50 = 0;
    uint64_t p90 = 0;
    uint64_t p95 = 0;
    uint64_t p97 = 0;
    uint64_t p99 = 0;
    uint64_t p999 = 0;

    /** Build from raw samples (sorts a copy). */
    static LatencySummary from(const std::vector<uint64_t> &samples);
};

/** Fraction of samples strictly greater than @p bound. */
double fractionOver(const std::vector<uint64_t> &samples, uint64_t bound);

} // namespace stats
} // namespace mlperf

#endif // MLPERF_STATS_PERCENTILE_H
