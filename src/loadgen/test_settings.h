/**
 * @file
 * TestSettings: everything that parameterizes a LoadGen run.
 *
 * Defaults follow the paper: 1,024-query single-stream floor, 24,576-
 * sample offline floor, 60-second minimum duration (Sec. III-D), 99th/
 * 97th tail percentiles and the 1%/3% over-latency allowances
 * (Sec. III-C). A user.conf-style key=value parser mirrors the real
 * LoadGen's "configuration file it reads at the start of the run".
 */

#ifndef MLPERF_LOADGEN_TEST_SETTINGS_H
#define MLPERF_LOADGEN_TEST_SETTINGS_H

#include <cstdint>
#include <string>

#include "loadgen/trace.h"
#include "loadgen/types.h"
#include "sim/executor.h"

namespace mlperf {
namespace loadgen {

struct TestSettings
{
    Scenario scenario = Scenario::SingleStream;
    TestMode mode = TestMode::PerformanceOnly;

    // ---- Server scenario.
    /** Poisson arrival rate; the scenario's reported metric. */
    double serverTargetQps = 100.0;
    /**
     * Burst mode (a scenario extension the paper plans in Sec. I):
     * 1.0 keeps plain Poisson arrivals; values > 1 modulate the rate
     * between burst periods at (factor x qps) and quiet periods, with
     * the long-run mean held at serverTargetQps. Must be < 4 (the
     * burst duty cycle is fixed at 25%).
     */
    double serverBurstFactor = 1.0;
    /**
     * Arrival-trace shape beyond Poisson/burst: diurnal rate ramps,
     * heavy-tailed session bursts, or replay of a recorded arrival
     * file (see loadgen/trace.h). All patterns are seeded by
     * scheduleSeed and pre-scheduled before the first issue, so the
     * load stays strictly open-loop regardless of SUT backpressure.
     */
    TraceSpec serverTrace;

    // ---- MultiStream scenario.
    /** Samples per query (N, the metric under search). */
    uint64_t multiStreamSamplesPerQuery = 4;
    /** Fixed arrival interval (Table III, also the latency bound). */
    uint64_t multiStreamArrivalNs = 50 * sim::kNsPerMs;

    /**
     * Server scenario: per-query completion deadline the SUT is asked
     * to honor (propagated into the serving runtime, which sheds
     * queries that expire in queue and reaps ones a worker never
     * answers). 0 disables deadlines. Distinct from targetLatencyNs:
     * the target bounds what counts as a *good* answer, the deadline
     * bounds how long the SUT may hold a query at all.
     */
    uint64_t serverQueryDeadlineNs = 0;

    // ---- TokenStream scenario (autoregressive decode).
    /**
     * TTFT bound: time from a query's *scheduled* arrival to its
     * first streamed token must stay under this at tailPercentile.
     * The TokenStream validity check and its TEST06-style corrected
     * tails judge TTFT, not completion latency.
     */
    uint64_t ttftTargetNs = 100 * sim::kNsPerMs;
    /**
     * Per-output-token bound: mean inter-token time of a response,
     * (completion - first token) / (tokens - 1), must stay under this
     * at tailPercentile. 0 disables the TPOT check.
     */
    uint64_t tpotTargetNs = 0;

    // ---- Latency constraint (server: Table III QoS bound).
    uint64_t targetLatencyNs = 15 * sim::kNsPerMs;
    /** Tail percentile the bound applies to (0.99 vision, 0.97 NMT). */
    double tailPercentile = 0.99;
    /** Allowed fraction of queries over the bound (0.01 or 0.03). */
    double maxOverLatencyFraction = 0.01;

    // ---- Run-length floors (Sec. III-D).
    uint64_t minQueryCount = 1024;
    uint64_t minDurationNs = 60 * sim::kNsPerSec;
    /** Samples in the single offline query (>= 24,576). */
    uint64_t offlineSampleCount = 24576;
    /** Optional hard cap for fast tests; 0 = no cap. */
    uint64_t maxQueryCount = 0;

    // ---- Reproducibility (Sec. IV-A: traffic is seed-determined).
    uint64_t sampleIndexSeed = 0xA5A5;
    uint64_t scheduleSeed = 0x5A5A;

    // ---- Audit hooks (Sec. V-B).
    /** How performance-mode sample indices are drawn. */
    enum class SampleIndexMode
    {
        RandomWithReplacement,  //!< default LoadGen behaviour
        UniqueSweep,            //!< TEST04-A: no duplicates per sweep
        SameIndex,              //!< TEST04-B: one sample, repeated
    };
    SampleIndexMode sampleIndexMode =
        SampleIndexMode::RandomWithReplacement;
    /**
     * TEST01: fraction of responses logged (with their result data)
     * even in performance mode, for consistency checking against the
     * accuracy run. 0 disables logging (the default: "results ... are
     * not logged ... to allow accurate measurement").
     */
    double accuracyLogFraction = 0.0;
    /** Record per-query issue/completion times (Figure 4 traces). */
    bool recordTimeline = false;

    /**
     * Parse user.conf-style overrides: one "key = value" per line,
     * '#' comments. Strict: an unknown key, a value that is not
     * wholly a number of the key's type and range (no trailing junk,
     * signs on counts, overflow, NaN or infinity) or an unreadable or
     * malformed trace_file throws std::invalid_argument naming the
     * config line; the lines before it stay applied. Known keys:
     * scenario, mode, server_target_qps, samples_per_query,
     * multistream_arrival_ms, target_latency_ms, ttft_target_ms,
     * tpot_target_ms,
     * server_query_deadline_ms, tail_percentile,
     * max_over_latency_fraction, min_query_count, min_duration_ms,
     * offline_sample_count, max_query_count, sample_index_seed,
     * schedule_seed, server_burst_factor,
     * arrival_pattern (poisson|bursty|diurnal|sessions|recorded),
     * diurnal_amplitude, diurnal_period_s, session_mean_size,
     * session_pareto_alpha, session_gap_ms, session_gap_sigma,
     * trace_file (path to a recorded arrival file; implies
     * arrival_pattern = recorded),
     * sample_index_mode (random|unique|same),
     * accuracy_log_fraction, record_timeline.
     */
    void applyConfig(const std::string &config);

    /** Scenario defaults per Sec. III-D / Table IV. */
    static TestSettings forScenario(Scenario scenario);

  private:
    /** One comment-stripped, trimmed, non-empty config line. */
    void applyConfigLine(const std::string &line);
};

} // namespace loadgen
} // namespace mlperf

#endif // MLPERF_LOADGEN_TEST_SETTINGS_H
