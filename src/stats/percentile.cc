#include "stats/percentile.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>

namespace mlperf {
namespace stats {

namespace {

/** 0-based index of the nearest-rank p-th percentile among n samples. */
size_t
nearestRankIndex(size_t n, double p)
{
    assert(n > 0);
    assert(p > 0.0 && p <= 1.0);
    // Nearest-rank: index ceil(p * N) in 1-based terms.
    const size_t rank =
        static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
    const size_t idx = (rank == 0 ? 0 : rank - 1);
    return std::min(idx, n - 1);
}

} // namespace

uint64_t
percentileSorted(const std::vector<uint64_t> &sorted, double p)
{
    return sorted[nearestRankIndex(sorted.size(), p)];
}

uint64_t
percentile(const std::vector<uint64_t> &samples, double p)
{
    // Selection, not a sort: the element nth_element puts at the rank
    // is the one a full sort would put there.
    std::vector<uint64_t> copy(samples);
    const auto nth = copy.begin() + static_cast<std::ptrdiff_t>(
                                        nearestRankIndex(copy.size(), p));
    std::nth_element(copy.begin(), nth, copy.end());
    return *nth;
}

LatencySummary
LatencySummary::from(const std::vector<uint64_t> &samples)
{
    LatencySummary s;
    if (samples.empty())
        return s;
    std::vector<uint64_t> sorted(samples);
    std::sort(sorted.begin(), sorted.end());
    s.count = sorted.size();
    s.minNs = sorted.front();
    s.maxNs = sorted.back();
    double sum = 0.0;
    for (uint64_t v : sorted)
        sum += static_cast<double>(v);
    s.meanNs = sum / static_cast<double>(sorted.size());
    s.p50 = percentileSorted(sorted, 0.50);
    s.p90 = percentileSorted(sorted, 0.90);
    s.p95 = percentileSorted(sorted, 0.95);
    s.p97 = percentileSorted(sorted, 0.97);
    s.p99 = percentileSorted(sorted, 0.99);
    s.p999 = percentileSorted(sorted, 0.999);
    return s;
}

double
fractionOver(const std::vector<uint64_t> &samples, uint64_t bound)
{
    if (samples.empty())
        return 0.0;
    size_t over = 0;
    for (uint64_t v : samples) {
        if (v > bound)
            ++over;
    }
    return static_cast<double>(over) / static_cast<double>(samples.size());
}

} // namespace stats
} // namespace mlperf
