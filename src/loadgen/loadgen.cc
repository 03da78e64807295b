#include "loadgen/loadgen.h"

#include <algorithm>
#include <cassert>
#include <atomic>
#include <memory>
#include <mutex>

#include "common/logging.h"
#include "loadgen/schedule.h"
#include "loadgen/trace.h"

namespace mlperf {
namespace loadgen {

namespace {

/**
 * One in-flight test. Implements the ResponseDelegate the SUT calls
 * into; all scenario progression happens on the executor so the logic
 * is single-threaded even when SUT completions arrive from worker
 * threads.
 */
class Run : public ResponseDelegate
{
  public:
    Run(sim::Executor &executor, SystemUnderTest &sut,
        QuerySampleLibrary &qsl, const TestSettings &settings)
        : executor_(executor), sut_(sut), qsl_(qsl),
          settings_(settings)
    {
    }

    TestResult
    execute()
    {
        begin();
        executor_.run();
        return finalize();
    }

    /**
     * Start issuing without owning the executor loop — used by
     * multi-tenant tests where several Runs share one executor.
     * @p on_finish fires (on the executor) when this Run completes,
     * instead of stopping the executor.
     */
    void
    begin(std::function<void()> on_finish = nullptr)
    {
        onFinish_ = std::move(on_finish);
        // Anchor every schedule at the current executor time so that
        // several tests can run back-to-back on one executor (wall
        // clocks never restart; virtual ones need not either).
        runStart_ = executor_.now();
        prepareSamples();
        start();
    }

    // ---- ResponseDelegate (thread-safe).
    void
    querySamplesComplete(
        const std::vector<QuerySampleResponse> &responses) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const sim::Tick now = executor_.now();
        for (const auto &response : responses) {
            assert(response.id < responseQuery_.size());
            const uint64_t q = responseQuery_[response.id];
            QueryState &query = queries_[q];
            assert(query.remaining > 0);
            switch (response.status) {
              case ResponseStatus::Ok: break;
              case ResponseStatus::Degraded: ++degradedSamples_; break;
              case ResponseStatus::Shed:     ++shedSamples_; break;
              case ResponseStatus::Timeout:  ++timeoutSamples_; break;
              case ResponseStatus::Failed:   ++failedSamples_; break;
            }
            if (responseIsError(response.status))
                query.errored = true;
            query.tokens += response.tokenCount;
            if (shouldLogResponse(response.id)) {
                accuracyLog_.push_back(
                    {responseIndex_[response.id], response.data});
            }
            if (--query.remaining == 0) {
                query.completed = now;
                --outstandingQueries_;
                executor_.schedule(now,
                                   [this, q] { onQueryComplete(q); });
            }
        }
        completedSamples_ += responses.size();
    }

    void
    querySampleFirstToken(ResponseId id) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const sim::Tick now = executor_.now();
        assert(id < responseQuery_.size());
        QueryState &query = queries_[responseQuery_[id]];
        // A query's TTFT is stamped by whichever of its samples
        // streams first; later first-token events don't move it.
        // 0 means "never streamed", so a virtual-time token at tick 0
        // is nudged to 1 ns rather than vanish.
        if (query.firstToken == 0)
            query.firstToken = std::max<sim::Tick>(now, 1);
    }

  private:
    struct QueryState
    {
        sim::Tick scheduled = 0;
        sim::Tick issued = 0;
        sim::Tick completed = 0;
        sim::Tick firstToken = 0;   //!< token-streaming: TTFT stamp
        uint64_t tokens = 0;        //!< output tokens streamed
        uint64_t remaining = 0;     //!< samples not yet completed
        uint64_t sampleCount = 0;
        bool causedSkip = false;    //!< multistream interval spill
        bool errored = false;       //!< any sample completed with error
    };

    /**
     * TEST01 sampling: log a deterministic pseudo-random fraction of
     * performance-mode responses (Sec. V-B accuracy verification).
     */
    bool
    shouldLogResponse(ResponseId id) const
    {
        if (settings_.mode == TestMode::AccuracyOnly)
            return true;
        if (settings_.accuracyLogFraction <= 0.0)
            return false;
        uint64_t z = id + 0x9e3779b97f4a7c15ULL *
                              (settings_.sampleIndexSeed + 1);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
        return (z >> 11) * 0x1.0p-53 < settings_.accuracyLogFraction;
    }

    // ------------------------------------------------------- set-up

    uint64_t
    targetQueryCount() const
    {
        if (settings_.mode == TestMode::AccuracyOnly) {
            const uint64_t total = qsl_.totalSampleCount();
            const uint64_t per = samplesPerQuery();
            return (total + per - 1) / per;
        }
        uint64_t target = settings_.minQueryCount;
        if (settings_.maxQueryCount != 0)
            target = std::min(target, settings_.maxQueryCount);
        if (settings_.scenario == Scenario::Offline)
            target = 1;
        return target;
    }

    uint64_t
    samplesPerQuery() const
    {
        switch (settings_.scenario) {
          case Scenario::MultiStream:
            return settings_.multiStreamSamplesPerQuery;
          case Scenario::Offline:
            if (settings_.mode == TestMode::AccuracyOnly)
                return qsl_.totalSampleCount();
            return settings_.offlineSampleCount;
          default:
            return 1;
        }
    }

    void
    prepareSamples()
    {
        const uint64_t queries = targetQueryCount();
        queries_.reserve(queries);
        responseQuery_.reserve(queries * samplesPerQuery());
        responseIndex_.reserve(queries * samplesPerQuery());
        if (settings_.mode == TestMode::AccuracyOnly) {
            sampleIndices_ =
                accuracySweepIndices(qsl_.totalSampleCount());
            staged_ = sampleIndices_;
            qsl_.loadSamplesToRam(staged_);
            return;
        }
        const uint64_t population = std::min(
            qsl_.performanceSampleCount(), qsl_.totalSampleCount());
        staged_.resize(population);
        for (uint64_t i = 0; i < population; ++i)
            staged_[i] = i;
        qsl_.loadSamplesToRam(staged_);
        sampleIndices_ = generateSampleIndices(
            targetQueryCount() * samplesPerQuery(), population,
            settings_.sampleIndexSeed, settings_.sampleIndexMode);
    }

    /**
     * Claim the next @p count sample indices (extending the stream if
     * needed); returns the position of the first in sampleIndices_.
     */
    uint64_t
    claimSampleIndices(uint64_t count)
    {
        while (nextSample_ + count > sampleIndices_.size()) {
            // Performance-mode runs can outlive the pregenerated
            // indices (min-duration extension); extend the stream
            // deterministically.
            const uint64_t population = std::min(
                qsl_.performanceSampleCount(), qsl_.totalSampleCount());
            auto more = generateSampleIndices(
                targetQueryCount() * samplesPerQuery(), population,
                settings_.sampleIndexSeed + ++extensions_,
                settings_.sampleIndexMode);
            sampleIndices_.insert(sampleIndices_.end(), more.begin(),
                                  more.end());
        }
        const uint64_t first = nextSample_;
        nextSample_ += count;
        return first;
    }

    // ------------------------------------------------- query issue

    /** Create a query of @p count samples scheduled at @p scheduled. */
    uint64_t
    createQuery(sim::Tick scheduled, uint64_t count)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        QueryState query;
        query.scheduled = scheduled;
        query.remaining = count;
        query.sampleCount = count;
        queries_.push_back(query);
        return queries_.size() - 1;
    }

    void
    issueQuery(uint64_t q)
    {
        std::vector<QuerySample> samples;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            QueryState &query = queries_[q];
            query.issued = executor_.now();
            const uint64_t first = claimSampleIndices(query.sampleCount);
            samples.reserve(query.sampleCount);
            for (uint64_t i = first; i < first + query.sampleCount; ++i) {
                const QuerySampleIndex index = sampleIndices_[i];
                const ResponseId id = responseQuery_.size();
                responseQuery_.push_back(q);
                responseIndex_.push_back(index);
                samples.push_back({id, index});
            }
            ++issuedQueries_;
            ++outstandingQueries_;
        }
        sut_.issueQuery(samples, *this);
    }

    // --------------------------------------------------- scenarios

    void
    start()
    {
        switch (settings_.scenario) {
          case Scenario::SingleStream:
            issueQuery(createQuery(executor_.now(), 1));
            break;
          case Scenario::Server:
          case Scenario::TokenStream:
            // TokenStream shares the server's open-loop arrival
            // machinery; only the latency bookkeeping differs.
            scheduleServerArrivals(targetQueryCount(), runStart_);
            break;
          case Scenario::MultiStream:
            scheduleNextIntervalTick();
            break;
          case Scenario::Offline: {
            const uint64_t q =
                createQuery(executor_.now(), samplesPerQuery());
            issueQuery(q);
            break;
          }
        }
    }

    void
    scheduleServerArrivals(uint64_t count, sim::Tick base)
    {
        // All arrivals are planned here, before any of them issues:
        // the schedule is a pure function of the settings and seed,
        // so SUT backpressure can delay *completions* but never an
        // issue timestamp (open-loop load; see loadgen/trace.h).
        // Min-duration extensions re-enter with a bumped seed, and a
        // recorded trace restarts from its beginning at the new base.
        const auto offsets = generateServerArrivals(
            settings_, count,
            settings_.scheduleSeed + arrivalBatches_++);
        for (sim::Tick offset : offsets) {
            const sim::Tick when = base + offset;
            ++pendingArrivals_;
            lastArrival_ = std::max(lastArrival_, when);
            executor_.schedule(when, [this, when] {
                --pendingArrivals_;
                issueQuery(createQuery(when, 1));
            });
        }
    }

    void
    scheduleNextIntervalTick()
    {
        const sim::Tick when =
            runStart_ +
            multistreamTick_ * settings_.multiStreamArrivalNs;
        ++multistreamTick_;
        executor_.schedule(when, [this, when] { onIntervalTick(when); });
    }

    void
    onIntervalTick(sim::Tick when)
    {
        bool busy;
        uint64_t current;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            busy = outstandingQueries_ > 0;
            current = queries_.empty() ? 0 : queries_.size() - 1;
        }
        if (busy) {
            // "If it is still processing the prior query in an
            // interval, it skips that interval and delays the
            // remaining queries by one interval."
            ++skippedIntervals_;
            std::lock_guard<std::mutex> lock(mutex_);
            queries_[current].causedSkip = true;
        } else if (issuedQueries_ < multistreamTarget()) {
            uint64_t count = settings_.multiStreamSamplesPerQuery;
            if (settings_.mode == TestMode::AccuracyOnly) {
                // The final accuracy-sweep query may be partial.
                count = std::min<uint64_t>(
                    count, sampleIndices_.size() - nextSample_);
            }
            issueQuery(createQuery(when, count));
        }
        if (issuedQueries_ < multistreamTarget() ||
            outstandingQueries_ > 0) {
            if (issuedQueries_ < multistreamTarget())
                scheduleNextIntervalTick();
            // else: wait for completions; onQueryComplete finishes.
        }
    }

    uint64_t
    multistreamTarget() const
    {
        uint64_t target = targetQueryCount();
        if (settings_.mode == TestMode::PerformanceOnly &&
            settings_.maxQueryCount == 0) {
            // Enough intervals to satisfy the minimum duration even
            // with zero skips.
            const uint64_t duration_queries =
                settings_.minDurationNs /
                    settings_.multiStreamArrivalNs +
                1;
            target = std::max(target, duration_queries);
        }
        return target;
    }

    // ------------------------------------------------- completion

    void
    onQueryComplete(uint64_t q)
    {
        (void)q;
        // Asynchronous SUTs deliver querySamplesComplete from worker
        // threads; the one that completed the final sample may still
        // be inside its critical section when this event runs. The
        // counters must be read under the mutex — both for coherence
        // and so the finish path below (which can unwind into ~Run)
        // cannot start until every completer has left the delegate.
        bool idle;
        uint64_t issued;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            idle = outstandingQueries_ == 0;
            issued = issuedQueries_;
        }
        switch (settings_.scenario) {
          case Scenario::SingleStream: {
            if (singleStreamDone()) {
                finish();
            } else {
                issueQuery(createQuery(executor_.now(), 1));
            }
            break;
          }
          case Scenario::Server:
          case Scenario::TokenStream: {
            if (pendingArrivals_ == 0 && idle) {
                if (serverFloorsMet()) {
                    finish();
                } else {
                    // Extend the run until the floors are satisfied;
                    // size the batch from the remaining duration so
                    // restart gaps stay negligible.
                    const sim::Tick now = executor_.now();
                    const sim::Tick elapsed = now - runStart_;
                    uint64_t remaining_queries = 64;
                    if (elapsed < settings_.minDurationNs) {
                        const double remaining_s =
                            static_cast<double>(
                                settings_.minDurationNs - elapsed) /
                            static_cast<double>(sim::kNsPerSec);
                        remaining_queries = std::max<uint64_t>(
                            remaining_queries,
                            static_cast<uint64_t>(
                                remaining_s *
                                settings_.serverTargetQps * 1.02) +
                                1);
                    }
                    scheduleServerArrivals(
                        remaining_queries,
                        std::max(now, lastArrival_));
                }
            }
            break;
          }
          case Scenario::MultiStream: {
            if (issued >= multistreamTarget() && idle) {
                finish();
            }
            break;
          }
          case Scenario::Offline: {
            if (idle)
                finish();
            break;
          }
        }
    }

    bool
    singleStreamDone() const
    {
        if (settings_.mode == TestMode::AccuracyOnly)
            return issuedQueries_ >= targetQueryCount();
        if (settings_.maxQueryCount != 0 &&
            issuedQueries_ >= settings_.maxQueryCount) {
            return true;
        }
        return issuedQueries_ >= settings_.minQueryCount &&
               executor_.now() - runStart_ >= settings_.minDurationNs;
    }

    bool
    serverFloorsMet() const
    {
        if (settings_.mode == TestMode::AccuracyOnly)
            return true;
        if (settings_.maxQueryCount != 0)
            return true;
        return issuedQueries_ >= settings_.minQueryCount &&
               executor_.now() - runStart_ >= settings_.minDurationNs;
    }

    void
    finish()
    {
        if (finished_)
            return;
        finished_ = true;
        sut_.flushQueries();
        if (onFinish_)
            onFinish_();
        else
            executor_.stop();
    }

    // --------------------------------------------------- reporting

  public:
    TestResult
    finalize()
    {
        TestResult result;
        result.sutName = sut_.name();
        result.qslName = qsl_.name();
        result.scenario = settings_.scenario;
        result.mode = settings_.mode;
        result.queryCount = issuedQueries_;
        result.sampleCount = completedSamples_;
        result.samplesPerQuery = samplesPerQuery();
        result.degradedSamples = degradedSamples_;
        result.shedSamples = shedSamples_;
        result.timeoutSamples = timeoutSamples_;
        result.failedSamples = failedSamples_;
        result.scheduledQps = settings_.serverTargetQps;
        result.queriesWithSkippedIntervals = 0;

        std::vector<uint64_t> latencies;
        latencies.reserve(queries_.size());
        std::vector<uint64_t> scheduledLatencies;
        scheduledLatencies.reserve(queries_.size());
        std::vector<uint64_t> issuedLatencies;
        issuedLatencies.reserve(queries_.size());
        std::vector<bool> erroredByLatency;
        erroredByLatency.reserve(queries_.size());
        const bool token_stream =
            settings_.scenario == Scenario::TokenStream;
        std::vector<uint64_t> ttfts;        //!< scheduled-referenced
        std::vector<uint64_t> issuedTtfts;  //!< issued-referenced
        std::vector<uint64_t> tpots;
        // Per-completed-query constraint values, aligned with the
        // latencies vector (entry 0 when the query never streamed).
        std::vector<uint64_t> ttftByQuery;
        std::vector<uint64_t> tpotByQuery;
        sim::Tick first_issue = 0, last_completion = 0;
        uint64_t driftSum = 0;
        bool any = false;
        for (const auto &query : queries_) {
            if (query.remaining != 0) {
                ++result.droppedQueries;
                continue;
            }
            const sim::Tick reference =
                settings_.scenario == Scenario::Server || token_stream
                    ? query.scheduled
                    : query.issued;
            latencies.push_back(query.completed - reference);
            scheduledLatencies.push_back(query.completed -
                                         query.scheduled);
            issuedLatencies.push_back(query.completed - query.issued);
            if (token_stream) {
                result.totalTokens += query.tokens;
                uint64_t ttft = 0, tpot = 0;
                if (query.firstToken != 0) {
                    ttft = query.firstToken - query.scheduled;
                    ttfts.push_back(ttft);
                    issuedTtfts.push_back(
                        query.firstToken >= query.issued
                            ? query.firstToken - query.issued
                            : 0);
                    if (query.tokens > 1) {
                        tpot = (query.completed - query.firstToken) /
                               (query.tokens - 1);
                        tpots.push_back(tpot);
                    }
                }
                ttftByQuery.push_back(ttft);
                tpotByQuery.push_back(tpot);
            }
            const uint64_t drift =
                query.issued >= query.scheduled
                    ? query.issued - query.scheduled
                    : 0;
            driftSum += drift;
            result.maxIssueDriftNs =
                std::max(result.maxIssueDriftNs, drift);
            erroredByLatency.push_back(query.errored);
            if (query.errored)
                ++result.erroredQueries;
            if (!any || query.issued < first_issue)
                first_issue = query.issued;
            last_completion =
                std::max(last_completion, query.completed);
            any = true;
            if (query.causedSkip)
                ++result.queriesWithSkippedIntervals;
        }
        result.durationNs = any ? last_completion - first_issue : 0;
        result.latency = stats::LatencySummary::from(latencies);
        if (!latencies.empty()) {
            result.tailLatencyNs = stats::percentile(
                latencies, settings_.tailPercentile);
            result.correctedTailLatencyNs = stats::percentile(
                scheduledLatencies, settings_.tailPercentile);
            result.issuedTailLatencyNs = stats::percentile(
                issuedLatencies, settings_.tailPercentile);
            result.meanIssueDriftNs =
                driftSum / latencies.size();
        }
        if (token_stream) {
            result.ttft = stats::LatencySummary::from(ttfts);
            result.tpot = stats::LatencySummary::from(tpots);
            if (!ttfts.empty()) {
                result.ttftTailNs = stats::percentile(
                    ttfts, settings_.tailPercentile);
                // The scenario's official latency *is* the TTFT, so
                // the coordinated-omission pair (corrected vs issued
                // tail, audited by TEST06) is computed on the
                // first-token series here.
                result.correctedTailLatencyNs = result.ttftTailNs;
                result.issuedTailLatencyNs = stats::percentile(
                    issuedTtfts, settings_.tailPercentile);
            }
            if (!tpots.empty()) {
                result.tpotTailNs = stats::percentile(
                    tpots, settings_.tailPercentile);
            }
            result.tokensPerSecond =
                result.durationNs > 0
                    ? static_cast<double>(result.totalTokens) *
                          static_cast<double>(sim::kNsPerSec) /
                          static_cast<double>(result.durationNs)
                    : 0.0;
        }
        // Only served (Ok or Degraded) samples count as throughput: a
        // shed, timed-out or failed sample comes back fast precisely
        // because it was never processed.
        result.completedQps =
            result.durationNs > 0
                ? static_cast<double>(completedSamples_ -
                                      result.errorSamples()) *
                      static_cast<double>(sim::kNsPerSec) /
                      static_cast<double>(result.durationNs)
                : 0.0;

        // A query completed with an error status (shed, timed out,
        // failed) did not produce a timely answer no matter how fast
        // the error response arrived; count it against the latency
        // bound so fault handling cannot game validity.
        uint64_t over = 0;
        for (size_t i = 0; i < latencies.size(); ++i) {
            if (token_stream) {
                // The streaming constraint: first token on time and
                // (optionally) sustained token cadence. A query that
                // never streamed a token has no TTFT; unless it was
                // completed as an explicit error, that is a dropped
                // stream and counts over-latency too.
                const bool no_stream = ttftByQuery[i] == 0;
                if (erroredByLatency[i] || no_stream ||
                    ttftByQuery[i] > settings_.ttftTargetNs ||
                    (settings_.tpotTargetNs != 0 &&
                     tpotByQuery[i] > settings_.tpotTargetNs)) {
                    ++over;
                }
            } else if (latencies[i] > settings_.targetLatencyNs ||
                       erroredByLatency[i]) {
                ++over;
            }
        }
        result.overLatencyCount = over;
        result.overLatencyFraction =
            latencies.empty() ? 0.0
                              : static_cast<double>(over) /
                                    static_cast<double>(
                                        latencies.size());

        if (settings_.recordTimeline) {
            result.timeline.reserve(queries_.size());
            for (const auto &query : queries_) {
                result.timeline.push_back({query.scheduled,
                                           query.issued,
                                           query.completed});
            }
        }
        // Release the staged samples (finalize runs exactly once per
        // Run, in both the single- and multi-tenant paths).
        qsl_.unloadSamplesFromRam(staged_);

        result.accuracyLog = std::move(accuracyLog_);
        if (settings_.mode == TestMode::AccuracyOnly) {
            result.minQueriesMet = true;
            result.minDurationMet = true;
            result.latencyBoundMet = true;
            result.valid = true;
        } else {
            determineValidity(result, settings_);
        }
        return result;
    }

    sim::Executor &executor_;
    SystemUnderTest &sut_;
    QuerySampleLibrary &qsl_;
    TestSettings settings_;

    std::mutex mutex_;
    std::vector<QueryState> queries_;
    std::vector<uint64_t> responseQuery_;       //!< ResponseId -> query
    std::vector<QuerySampleIndex> responseIndex_;
    std::vector<QuerySampleIndex> sampleIndices_;
    std::vector<QuerySampleIndex> staged_;  //!< samples in RAM
    uint64_t nextSample_ = 0;
    uint64_t extensions_ = 0;
    std::atomic<uint64_t> issuedQueries_{0};
    std::atomic<uint64_t> outstandingQueries_{0};
    std::atomic<uint64_t> completedSamples_{0};
    // Fault accounting (guarded by mutex_ like queries_).
    uint64_t degradedSamples_ = 0;
    uint64_t shedSamples_ = 0;
    uint64_t timeoutSamples_ = 0;
    uint64_t failedSamples_ = 0;
    uint64_t pendingArrivals_ = 0;
    uint64_t arrivalBatches_ = 0;
    sim::Tick lastArrival_ = 0;
    uint64_t multistreamTick_ = 0;
    sim::Tick runStart_ = 0;
    uint64_t skippedIntervals_ = 0;
    std::vector<AccuracyRecord> accuracyLog_;
    std::function<void()> onFinish_;
    bool finished_ = false;
};

} // namespace

TestResult
LoadGen::startTest(SystemUnderTest &sut, QuerySampleLibrary &qsl,
                   const TestSettings &settings)
{
    MLPERF_LOG(Info) << "LoadGen: starting "
                     << scenarioName(settings.scenario) << " ("
                     << testModeName(settings.mode) << ") against "
                     << sut.name();
    Run run(executor_, sut, qsl, settings);
    TestResult result = run.execute();
    MLPERF_LOG(Info) << "LoadGen: " << scenarioName(settings.scenario)
                     << " finished: "
                     << (result.valid ? "VALID" : "INVALID") << ", "
                     << result.queryCount << " queries, "
                     << result.scenarioMetricLabel() << " = "
                     << result.scenarioMetric();
    return result;
}

std::vector<TestResult>
LoadGen::startMultiTenantTest(const std::vector<Tenant> &tenants)
{
    std::vector<std::unique_ptr<Run>> runs;
    runs.reserve(tenants.size());
    for (const auto &tenant : tenants) {
        runs.push_back(std::make_unique<Run>(
            executor_, *tenant.sut, *tenant.qsl, tenant.settings));
    }
    // The executor stops when the last tenant finishes, so slow
    // tenants keep receiving background load from fast ones for most
    // of their run — the "continuously serve multiple models while
    // maintaining QoS" condition of Sec. IV-B.
    size_t remaining = runs.size();
    for (auto &run : runs) {
        run->begin([this, &remaining] {
            if (--remaining == 0)
                executor_.stop();
        });
    }
    executor_.run();
    std::vector<TestResult> results;
    results.reserve(runs.size());
    for (auto &run : runs)
        results.push_back(run->finalize());
    return results;
}

} // namespace loadgen
} // namespace mlperf
