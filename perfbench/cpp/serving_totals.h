/**
 * @file
 * Per-layer observations of the request/response serving path,
 * summed over the LoadGen runs of a traced phase, and the stage
 * reconciliation check shared by every workload.
 */

#ifndef PERFBENCH_SERVING_TOTALS_H
#define PERFBENCH_SERVING_TOTALS_H

#include <cstdint>
#include <vector>

#include "loadgen/results.h"
#include "run_state.h"
#include "serving/serving_stats.h"

namespace perfbench {

/**
 * Tolerances on the |residual| a sample's stages leave unexplained:
 * the time between a decorator's stamp and the LoadGen's own (or the
 * batcher's callback), a lock hand-off of a few microseconds. On a
 * host that preempts vCPUs, about 1% of hand-offs also absorb a
 * 2-20 ms preemption, so the p99 gets the tight bound and the
 * maximum only a bound that no preemption seen reaches; beyond either,
 * a stamp went to the wrong sample.
 */
constexpr double kResidualP99ToleranceUs = 200.0;
constexpr double kResidualMaxToleranceUs = 50000.0;

/** Samples per LoadGen run whose stages are exported as spans. */
constexpr size_t kStageSpanSamples = 256;

/**
 * Export one sample's stages as spans: a root span from the first to
 * the last stamp, and stage i (named @p names[i]) from stamps[i] to
 * stamps[i + 1] as its child.
 */
void addStageSpans(SpanLog &spans, int64_t sample,
                   const std::vector<Tick> &stamps,
                   const std::vector<const char *> &names);

/**
 * Fail the run when a stage went negative (stamps out of causal
 * order) or the residuals exceed their tolerances; publish them.
 */
void reconcile(RunState &state, const std::vector<double> &residual_us,
               uint64_t unordered);

struct ServingTotals
{
    std::vector<double> driftUs, waitUs, deliverUs, residualUs;
    std::vector<double> runMs, correctedTailRatio;
    std::vector<double> b1Us, fullUs;
    uint64_t unordered = 0;
    uint64_t steals = 0, ringFallbacks = 0, fastPathLocks = 0;
    uint64_t events = 0, callbackNs = 0;
    double statsBusyNs = 0.0, capacityNs = 0.0, batchNs = 0.0;
    uint64_t batchSamples = 0;
    uint64_t samplesCompleted = 0, batchesCompleted = 0;
    uint64_t batchesFormed = 0, timeoutFlushes = 0, shed = 0;
    double unanswered = 0.0, statsGap = 0.0;

    void
    noteStages(const StageSplit &split)
    {
        if (!split.ordered)
            ++unordered;
    }

    void foldStats(const mlperf::serving::StatsSnapshot &stats,
                   const loadgen::TestResult &result,
                   const AnswerCounts &counts, int64_t workers);
    void foldBatches(const std::vector<BatchRecord> &batches,
                     int64_t max_batch);
    void publish(RunState &state) const;
};

} // namespace perfbench

#endif // PERFBENCH_SERVING_TOTALS_H
