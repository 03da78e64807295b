#include "loadgen/results.h"

#include "common/string_util.h"

namespace mlperf {
namespace loadgen {

double
TestResult::scenarioMetric() const
{
    switch (scenario) {
      case Scenario::SingleStream:
        return static_cast<double>(latency.p90);
      case Scenario::MultiStream:
        return static_cast<double>(samplesPerQuery);
      case Scenario::Server:
        return scheduledQps;
      case Scenario::Offline:
        return completedQps;
      case Scenario::TokenStream:
        return tokensPerSecond;
    }
    return 0.0;
}

std::string
TestResult::scenarioMetricLabel() const
{
    switch (scenario) {
      case Scenario::SingleStream:
        return "90th percentile latency (ns)";
      case Scenario::MultiStream:
        return "Samples per query";
      case Scenario::Server:
        return "Scheduled samples per second";
      case Scenario::Offline:
        return "Samples per second";
      case Scenario::TokenStream:
        return "Output tokens per second";
    }
    return "?";
}

std::string
TestResult::summary() const
{
    std::string out;
    out += "================================================\n";
    out += "MLPerf Results Summary\n";
    out += "================================================\n";
    out += "SUT name : " + sutName + "\n";
    out += "QSL name : " + qslName + "\n";
    out += "Scenario : " + scenarioName(scenario) + "\n";
    out += "Mode     : " + testModeName(mode) + "\n";
    out += strprintf("%s : %.2f\n", scenarioMetricLabel().c_str(),
                     scenarioMetric());
    out += strprintf("Result is : %s\n", valid ? "VALID" : "INVALID");
    if (droppedQueries > 0) {
        out += strprintf("  * %s queries never completed\n",
                         withThousands(droppedQueries).c_str());
    }
    if (!minDurationMet)
        out += "  * Min duration requirement NOT met\n";
    if (!minQueriesMet)
        out += "  * Min queries requirement NOT met\n";
    if (!latencyBoundMet)
        out += "  * Latency constraint NOT met\n";
    if (scenario == Scenario::Offline && errorSamples() > 0) {
        out += strprintf("  * %s samples completed with an error status\n",
                         withThousands(errorSamples()).c_str());
    }
    out += "\n";
    out += "================================================\n";
    out += "Additional Stats\n";
    out += "================================================\n";
    out += strprintf("Queries issued    : %s\n",
                     withThousands(queryCount).c_str());
    out += strprintf("Samples completed : %s\n",
                     withThousands(sampleCount).c_str());
    out += strprintf("Run duration      : %s\n",
                     formatDuration(durationNs).c_str());
    out += strprintf("Completed samples per second : %.2f\n",
                     completedQps);
    if (latency.count > 0) {
        out += strprintf("Min latency    : %s\n",
                         formatDuration(latency.minNs).c_str());
        out += strprintf("Mean latency   : %s\n",
                         formatDuration(static_cast<uint64_t>(
                             latency.meanNs)).c_str());
        out += strprintf("50.00 pct lat. : %s\n",
                         formatDuration(latency.p50).c_str());
        out += strprintf("90.00 pct lat. : %s\n",
                         formatDuration(latency.p90).c_str());
        out += strprintf("95.00 pct lat. : %s\n",
                         formatDuration(latency.p95).c_str());
        out += strprintf("97.00 pct lat. : %s\n",
                         formatDuration(latency.p97).c_str());
        out += strprintf("99.00 pct lat. : %s\n",
                         formatDuration(latency.p99).c_str());
        out += strprintf("Max latency    : %s\n",
                         formatDuration(latency.maxNs).c_str());
    }
    if (scenario == Scenario::MultiStream) {
        out += strprintf("Queries with skipped intervals : %s\n",
                         withThousands(queriesWithSkippedIntervals)
                             .c_str());
    }
    if (scenario == Scenario::Server ||
        scenario == Scenario::MultiStream ||
        scenario == Scenario::TokenStream) {
        out += strprintf("Over-latency fraction : %.4f\n",
                         overLatencyFraction);
    }
    if (scenario == Scenario::TokenStream) {
        out += strprintf("Output tokens : %s\n",
                         withThousands(totalTokens).c_str());
        if (ttft.count > 0) {
            out += strprintf("TTFT mean      : %s\n",
                             formatDuration(static_cast<uint64_t>(
                                 ttft.meanNs)).c_str());
            out += strprintf("TTFT 50.00 pct : %s\n",
                             formatDuration(ttft.p50).c_str());
            out += strprintf("TTFT 99.00 pct : %s\n",
                             formatDuration(ttft.p99).c_str());
            out += strprintf("TTFT tail      : %s\n",
                             formatDuration(ttftTailNs).c_str());
        }
        if (tpot.count > 0) {
            out += strprintf("TPOT mean      : %s\n",
                             formatDuration(static_cast<uint64_t>(
                                 tpot.meanNs)).c_str());
            out += strprintf("TPOT 99.00 pct : %s\n",
                             formatDuration(tpot.p99).c_str());
        }
    }
    if ((scenario == Scenario::Server ||
         scenario == Scenario::TokenStream) &&
        latency.count > 0) {
        out += strprintf(
            "Corrected tail latency (sched-ref) : %s\n",
            formatDuration(correctedTailLatencyNs).c_str());
        out += strprintf(
            "Issued-referenced tail latency     : %s\n",
            formatDuration(issuedTailLatencyNs).c_str());
        out += strprintf(
            "Issue drift (mean/max) : %s / %s\n",
            formatDuration(meanIssueDriftNs).c_str(),
            formatDuration(maxIssueDriftNs).c_str());
    }
    if (errorSamples() > 0 || degradedSamples > 0) {
        out += "Fault accounting\n";
        if (shedSamples > 0)
            out += strprintf("  Shed samples     : %s\n",
                             withThousands(shedSamples).c_str());
        if (timeoutSamples > 0)
            out += strprintf("  Timed-out samples: %s\n",
                             withThousands(timeoutSamples).c_str());
        if (failedSamples > 0)
            out += strprintf("  Failed samples   : %s\n",
                             withThousands(failedSamples).c_str());
        if (degradedSamples > 0)
            out += strprintf("  Degraded serves  : %s\n",
                             withThousands(degradedSamples).c_str());
        out += strprintf("  Errored queries  : %s\n",
                         withThousands(erroredQueries).c_str());
    }
    return out;
}

std::string
TestResult::timelineCsv() const
{
    std::string out = "query,scheduled_ns,issued_ns,completed_ns,"
                      "latency_ns\n";
    const bool from_scheduled = scenario == Scenario::Server ||
                                scenario == Scenario::TokenStream;
    for (size_t i = 0; i < timeline.size(); ++i) {
        const auto &q = timeline[i];
        const sim::Tick reference =
            from_scheduled ? q.scheduled : q.issued;
        out += strprintf(
            "%zu,%llu,%llu,%llu,%llu\n", i,
            static_cast<unsigned long long>(q.scheduled),
            static_cast<unsigned long long>(q.issued),
            static_cast<unsigned long long>(q.completed),
            static_cast<unsigned long long>(q.completed - reference));
    }
    return out;
}

void
determineValidity(TestResult &result, const TestSettings &settings)
{
    result.minQueriesMet = result.queryCount >= settings.minQueryCount;
    // A capped run (maxQueryCount) is exempt from the floors: caps
    // exist for experimentation, and results are flagged by the cap
    // itself in the settings used.
    if (settings.maxQueryCount != 0 &&
        settings.maxQueryCount < settings.minQueryCount) {
        result.minQueriesMet =
            result.queryCount >= settings.maxQueryCount;
    }
    result.minDurationMet =
        result.durationNs >= settings.minDurationNs ||
        (settings.maxQueryCount != 0 &&
         result.queryCount >= settings.maxQueryCount);
    if (settings.scenario == Scenario::Offline) {
        // The offline floor is on samples, not duration.
        result.minDurationMet = true;
        result.minQueriesMet =
            result.sampleCount >= settings.offlineSampleCount ||
            (settings.maxQueryCount != 0 && result.queryCount >= 1);
    }

    switch (settings.scenario) {
      case Scenario::SingleStream:
      case Scenario::Offline:
        // No latency constraint.
        result.latencyBoundMet = true;
        break;
      case Scenario::Server:
      case Scenario::TokenStream:
        // TokenStream counts a query over-latency when its TTFT (or
        // TPOT, if bounded) exceeds the target; the allowance math is
        // the server scenario's.
        result.latencyBoundMet =
            result.overLatencyFraction <=
            settings.maxOverLatencyFraction;
        break;
      case Scenario::MultiStream:
        // "No more than 1% of the queries may produce one or more
        // skipped intervals."
        result.latencyBoundMet =
            result.queryCount == 0 ||
            static_cast<double>(result.queriesWithSkippedIntervals) /
                    static_cast<double>(result.queryCount) <=
                settings.maxOverLatencyFraction;
        break;
    }

    // Every issued query must have completed: a SUT that drops
    // responses cannot produce a valid result. Offline has no latency
    // bound to charge error responses against, so any shed, timed-out
    // or failed sample voids the run instead: its throughput would
    // otherwise count samples that were never processed.
    result.valid = result.minQueriesMet && result.minDurationMet &&
                   result.latencyBoundMet &&
                   result.droppedQueries == 0 &&
                   !(settings.scenario == Scenario::Offline &&
                     result.errorSamples() > 0);
}

} // namespace loadgen
} // namespace mlperf
