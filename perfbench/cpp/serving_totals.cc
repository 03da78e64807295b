#include "serving_totals.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

double
pct(const std::vector<double> &values, double p)
{
    return supportedPercentile(values, p).value;
}

} // namespace

void
addStageSpans(SpanLog &spans, int64_t sample,
              const std::vector<Tick> &stamps,
              const std::vector<const char *> &names)
{
    if (!spans.enabled() || stamps.size() != names.size() + 1)
        return;
    const int64_t root =
        spans.add("sample", stamps.front(), stamps.back(), sample);
    for (size_t i = 0; i < names.size(); ++i)
        spans.add(names[i], stamps[i], stamps[i + 1], sample, root);
}

void
reconcile(RunState &state, const std::vector<double> &residual_us,
          uint64_t unordered)
{
    std::vector<double> magnitudes;
    magnitudes.reserve(residual_us.size());
    for (double r : residual_us)
        magnitudes.push_back(std::fabs(r));
    const double worst =
        magnitudes.empty()
            ? 0.0
            : *std::max_element(magnitudes.begin(), magnitudes.end());
    const double p99 = nearestRank(magnitudes, 0.99);
    state.setLayer("trace.residual_us_max", worst);
    state.setLayer("trace.residual_us_p99", p99);
    state.meta("trace.reconciled_samples",
               std::to_string(residual_us.size()));
    if (residual_us.empty())
        state.report().fail("stage reconciliation: no traced samples");
    if (unordered > 0) {
        state.report().fail("stage reconciliation: " +
                            std::to_string(unordered) +
                            " samples with stamps out of order");
    }
    if (p99 > kResidualP99ToleranceUs || worst > kResidualMaxToleranceUs) {
        state.report().fail(
            "stage reconciliation: residual p99 " + jsonNumber(p99) +
            " us, max " + jsonNumber(worst) + " us (tolerances " +
            jsonNumber(kResidualP99ToleranceUs) + ", " +
            jsonNumber(kResidualMaxToleranceUs) + " us)");
    }
}

void
ServingTotals::foldStats(const mlperf::serving::StatsSnapshot &stats,
                         const loadgen::TestResult &result,
                         const AnswerCounts &counts, int64_t workers)
{
    statsBusyNs += static_cast<double>(stats.workerBusyNs);
    capacityNs += static_cast<double>(workers) *
                  static_cast<double>(result.durationNs);
    samplesCompleted += stats.samplesCompleted;
    batchesCompleted += stats.batchesCompleted;
    batchesFormed += stats.batchesFormed;
    timeoutFlushes += stats.timeoutFlushes;
    shed += stats.samplesShed + stats.admissionShedSamples +
            stats.expiredSamples;
    const uint64_t answered = counts.ok + counts.degraded + counts.shed +
                              counts.timeout + counts.failedStatus;
    unanswered += static_cast<double>(stats.samplesIssued) -
                  static_cast<double>(answered);
    statsGap += std::fabs(static_cast<double>(stats.samplesCompleted) -
                          static_cast<double>(result.sampleCount));
}

void
ServingTotals::foldBatches(const std::vector<BatchRecord> &batches,
                           int64_t max_batch)
{
    for (const BatchRecord &b : batches) {
        batchNs += static_cast<double>(b.ns);
        batchSamples += b.size;
        if (b.size == 1)
            b1Us.push_back(static_cast<double>(b.ns) / 1e3);
        if (static_cast<int64_t>(b.size) == max_batch)
            fullUs.push_back(static_cast<double>(b.ns) / 1e3);
    }
}

void
ServingTotals::publish(RunState &state) const
{
    state.setLayer("loadgen.drift_us_p50", pct(driftUs, 0.5));
    state.setLayer("loadgen.drift_us_p99", pct(driftUs, 0.99));
    state.setLayer("loadgen.corrected_tail_ratio",
                   median(correctedTailRatio));
    if (state.layer("loadgen.run_ms") == 0.0)
        state.setLayer("loadgen.run_ms", median(runMs));
    state.setLayer("sim.events", static_cast<double>(events));
    state.setLayer("sim.ns_per_event",
                   events ? static_cast<double>(callbackNs) /
                                static_cast<double>(events)
                          : 0.0);
    state.setLayer("serving.wait_us_p50", pct(waitUs, 0.5));
    state.setLayer("serving.wait_us_p99", pct(waitUs, 0.99));
    state.setLayer("serving.deliver_us_p50", pct(deliverUs, 0.5));
    state.setLayer("serving.deliver_us_p99", pct(deliverUs, 0.99));
    state.setLayer("serving.batch_size_mean",
                   batchesCompleted
                       ? static_cast<double>(samplesCompleted) /
                             static_cast<double>(batchesCompleted)
                       : 0.0);
    state.setLayer("serving.timeout_flush_frac",
                   batchesFormed ? static_cast<double>(timeoutFlushes) /
                                       static_cast<double>(batchesFormed)
                                 : 0.0);
    const double utilization =
        capacityNs > 0.0 ? statsBusyNs / capacityNs : 0.0;
    state.setLayer("serving.utilization", utilization);
    state.setLayer("serving.shed", static_cast<double>(shed));
    state.setLayer("serving.steals", static_cast<double>(steals));
    state.setLayer("serving.ring_fallbacks",
                   static_cast<double>(ringFallbacks));
    state.setLayer("serving.fast_path_locks",
                   static_cast<double>(fastPathLocks));
    state.setLayer("sut.batch_us_p50_b1", median(b1Us));
    state.setLayer("sut.batch_us_p50_full", median(fullUs));
    state.setLayer("sut.us_per_sample",
                   batchSamples ? batchNs / 1e3 /
                                      static_cast<double>(batchSamples)
                                : 0.0);
    state.setLayer("sut.busy_frac",
                   capacityNs > 0.0 ? batchNs / capacityNs : 0.0);
    state.setLayer("conservation.unanswered", unanswered);
    state.setLayer("conservation.stats_gap", statsGap);
    state.setLayer("conservation.util_over_1",
                   std::max(0.0, utilization - 1.0));
    reconcile(state, residualUs, unordered);
}

} // namespace perfbench
