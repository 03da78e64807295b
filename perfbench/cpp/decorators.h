/**
 * @file
 * Decorators that measure the system from outside.
 *
 * The benchmark never edits the program: it wraps the interfaces the
 * layers already expose and times the calls that cross them.
 *
 *  - TimedSut / TimedDelegate (loadgen::SystemUnderTest and
 *    loadgen::ResponseDelegate): issue and completion stamps per
 *    sample, the benchmark's own answer check and status accounting.
 *  - TimedInference (serving::BatchInference): the compute span of
 *    every batch a serving worker runs.
 *  - TimedDecoder (serving::SequenceDecoder): prefill and decode-step
 *    spans of the continuous batcher's slots.
 *  - CountingExecutor (sim::Executor): events scheduled and, when
 *    traced, host time spent inside each event callback.
 *
 * All stamps are taken on the executor's clock (now()), the clock the
 * LoadGen itself stamps with, so stage sums can be reconciled with the
 * LoadGen's latencies. Spans stay in memory (SpanLog) and are written
 * once, at exit, as Chrome trace-event JSON.
 */

#ifndef PERFBENCH_DECORATORS_H
#define PERFBENCH_DECORATORS_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "loadgen/sut.h"
#include "serving/batch_inference.h"
#include "serving/continuous_batcher.h"
#include "sim/executor.h"

namespace perfbench {

using mlperf::sim::Tick;
namespace loadgen = mlperf::loadgen;
namespace serving = mlperf::serving;
namespace sim = mlperf::sim;

/** One timed interval; parent and sample are -1 when absent. */
struct Span
{
    const char *name = "";
    Tick start = 0;
    Tick end = 0;
    int64_t parent = -1;
    int64_t sample = -1;
    uint32_t tid = 0;
};

/**
 * In-memory span store. Disabled logs ignore add(); enabled ones keep
 * up to @p cap spans and count the rest as dropped.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled, size_t cap = 200000)
        : enabled_(enabled), cap_(cap)
    {
    }

    bool enabled() const { return enabled_; }

    /**
     * Offset added to later spans, so runs on different executors
     * (each clock starts at its own 0) share one trace timeline. Set
     * only while no decorated call is in flight.
     */
    void setEpoch(Tick epoch) { epoch_ = epoch; }

    /** Record a span; returns its index, or -1 if not kept. */
    int64_t add(const char *name, Tick start, Tick end,
                int64_t sample = -1, int64_t parent = -1);

    size_t size() const;
    uint64_t dropped() const { return dropped_.load(); }

    /** Write the spans as Chrome trace-event JSON; false on error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    const bool enabled_;
    const size_t cap_;
    Tick epoch_ = 0;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::atomic<uint64_t> dropped_{0};
};

/** Per-sample stamps of one LoadGen run, indexed by response id. */
struct SampleRecord
{
    loadgen::QuerySampleIndex index = 0;
    Tick issued = 0;        //!< entry of TimedSut::issueQuery
    Tick computeStart = 0;  //!< runBatch start, or prefill start
    Tick computeEnd = 0;    //!< runBatch end, or prefill end
    Tick firstStepEnd = 0;  //!< end of the first decode step
    Tick firstToken = 0;    //!< first-token callback
    Tick done = 0;          //!< completion callback
    uint64_t tokens = 0;
    bool answered = false;
    bool correct = false;
};

/** Status counts of one run as the delegate saw them. */
struct AnswerCounts
{
    uint64_t issued = 0;
    uint64_t answered = 0;
    uint64_t ok = 0;
    uint64_t degraded = 0;
    uint64_t shed = 0;
    uint64_t timeout = 0;
    uint64_t failedStatus = 0;
    uint64_t wrong = 0;       //!< served, but not the expected answer
    uint64_t duplicate = 0;   //!< completed more than once
    uint64_t untracked = 0;   //!< response id beyond the ledger

    /** Samples that did not yield a correct answer. */
    uint64_t
    failures() const
    {
        const uint64_t unanswered =
            issued > answered ? issued - answered : 0;
        return shed + timeout + failedStatus + wrong + duplicate +
               untracked + unanswered;
    }
};

/**
 * Checks one answer: given the sample's library index and the
 * response payload, true when the payload is the expected answer.
 */
using Oracle =
    std::function<bool(loadgen::QuerySampleIndex, const std::string &)>;

/**
 * Ledger of one LoadGen run. With capacity 0 only counts are kept
 * (the virtual-time search issues millions of samples).
 */
class RunLedger
{
  public:
    RunLedger(size_t capacity, Oracle oracle);

    /** Stamp an issued sample (issuing thread). */
    void noteIssued(const loadgen::QuerySample &sample, Tick now);
    /** Record completions (any thread). */
    void noteComplete(
        const std::vector<loadgen::QuerySampleResponse> &responses,
        Tick now);
    void noteFirstToken(loadgen::ResponseId id, Tick now);

    /** Record of @p id, or null when untracked. */
    SampleRecord *record(loadgen::ResponseId id);
    const std::vector<SampleRecord> &records() const { return records_; }
    /** Response ids in issue order. */
    const std::vector<loadgen::ResponseId> &issueOrder() const
    {
        return issueOrder_;
    }

    AnswerCounts counts() const;
    /** Wall time (steady clock, s) of the first completion. */
    double firstAnswerWall() const { return firstAnswerWall_; }

  private:
    Oracle oracle_;
    std::vector<SampleRecord> records_;
    std::vector<loadgen::ResponseId> issueOrder_;
    mutable std::mutex mutex_;
    AnswerCounts counts_;
    double firstAnswerWall_ = 0.0;
};

/** Seconds on the steady clock since the process started. */
double wallSeconds();

/** Threads of this process right now (from /proc/self/status). */
int processThreads();

/** The delegate side of TimedSut. */
class TimedDelegate : public loadgen::ResponseDelegate
{
  public:
    TimedDelegate(sim::Executor &clock, RunLedger &ledger, SpanLog &spans)
        : clock_(clock), ledger_(ledger), spans_(spans)
    {
    }

    void bind(loadgen::ResponseDelegate *inner) { inner_ = inner; }
    bool bound() const { return inner_ != nullptr; }

    void querySamplesComplete(
        const std::vector<loadgen::QuerySampleResponse> &responses)
        override;
    void querySampleFirstToken(loadgen::ResponseId id) override;

  private:
    sim::Executor &clock_;
    RunLedger &ledger_;
    SpanLog &spans_;
    loadgen::ResponseDelegate *inner_ = nullptr;
};

/**
 * SUT decorator: stamps every issued sample, routes completions through
 * a TimedDelegate, and samples the process's thread count when the
 * LoadGen flushes (all workers are still alive then).
 */
class TimedSut : public loadgen::SystemUnderTest
{
  public:
    TimedSut(loadgen::SystemUnderTest &inner, sim::Executor &clock,
             RunLedger &ledger, SpanLog &spans)
        : inner_(inner), clock_(clock), ledger_(ledger), spans_(spans),
          delegate_(clock, ledger, spans)
    {
    }

    std::string name() const override { return inner_.name(); }
    void issueQuery(const std::vector<loadgen::QuerySample> &samples,
                    loadgen::ResponseDelegate &delegate) override;
    void flushQueries() override;

    /** Most threads seen at a flush. */
    int observedThreads() const { return observedThreads_; }

  private:
    loadgen::SystemUnderTest &inner_;
    sim::Executor &clock_;
    RunLedger &ledger_;
    SpanLog &spans_;
    TimedDelegate delegate_;
    int observedThreads_ = 0;
};

/** One batch as TimedInference saw it. */
struct BatchRecord
{
    uint32_t size = 0;
    Tick ns = 0;
};

/** Times every batch a serving worker runs. Thread-safe. */
class TimedInference : public serving::BatchInference
{
  public:
    TimedInference(serving::BatchInference &inner, sim::Executor &clock,
                   SpanLog &spans)
        : inner_(inner), clock_(clock), spans_(spans)
    {
    }

    /** Ledger to stamp per-sample compute spans into (may be null).
     *  Set only while no worker runs. */
    void attach(RunLedger *ledger) { ledger_ = ledger; }

    std::string name() const override { return inner_.name(); }
    std::vector<loadgen::QuerySampleResponse> runBatch(
        const std::vector<loadgen::QuerySample> &samples) override;

    /** Take the batches recorded so far. */
    std::vector<BatchRecord> takeBatches();

  private:
    serving::BatchInference &inner_;
    sim::Executor &clock_;
    SpanLog &spans_;
    RunLedger *ledger_ = nullptr;
    std::mutex mutex_;
    std::vector<BatchRecord> batches_;
};

/** One prefill as TimedDecoder saw it, in admission order. */
struct PrefillRecord
{
    loadgen::QuerySampleIndex index = 0;
    Tick start = 0;
    Tick end = 0;
    Tick firstStepEnd = 0;
};

/**
 * Times prefill and decode steps of the continuous batcher's slots.
 * Called only from the single decode thread; read the records after
 * the batcher has been destroyed (its thread joined).
 */
class TimedDecoder : public serving::SequenceDecoder
{
  public:
    TimedDecoder(serving::SequenceDecoder &inner, sim::Executor &clock,
                 SpanLog &spans);

    size_t slotCount() const override { return inner_.slotCount(); }
    void prefill(size_t slot, loadgen::QuerySampleIndex index) override;
    serving::StepOutcome step(size_t slot) override;
    void padStep(size_t slot) override;
    std::string result(size_t slot) const override
    {
        return inner_.result(slot);
    }
    uint64_t tokenCount(size_t slot) const override
    {
        return inner_.tokenCount(slot);
    }
    void release(size_t slot) override;

    const std::vector<PrefillRecord> &prefills() const { return prefills_; }
    const std::vector<Tick> &stepNs() const { return stepNs_; }

    /** Steps per decoder exported as spans; a run takes ~40k steps. */
    static constexpr size_t kStepSpans = 4096;

  private:
    serving::SequenceDecoder &inner_;
    sim::Executor &clock_;
    SpanLog &spans_;
    std::vector<int64_t> slotPrefill_;  //!< slot -> prefill ordinal
    std::vector<bool> slotStepped_;
    std::vector<PrefillRecord> prefills_;
    std::vector<Tick> stepNs_;
};

/**
 * Executor decorator: counts scheduled events and, when @p time_tasks,
 * the host time spent inside each callback. Everything else forwards.
 */
class CountingExecutor : public sim::Executor
{
  public:
    CountingExecutor(sim::Executor &inner, bool time_tasks)
        : inner_(inner), timeTasks_(time_tasks)
    {
    }

    Tick now() const override { return inner_.now(); }
    bool virtualTime() const override { return inner_.virtualTime(); }
    void schedule(Tick when, Task task) override;
    void run() override;
    void stop() override { inner_.stop(); }

    uint64_t scheduled() const { return scheduled_.load(); }
    uint64_t ran() const { return ran_.load(); }
    /** Host ns inside callbacks (only when timing tasks). */
    uint64_t callbackNs() const { return callbackNs_.load(); }
    /** Host ns inside run(). */
    uint64_t runNs() const { return runNs_.load(); }

  private:
    sim::Executor &inner_;
    const bool timeTasks_;
    std::atomic<uint64_t> scheduled_{0};
    std::atomic<uint64_t> ran_{0};
    std::atomic<uint64_t> callbackNs_{0};
    std::atomic<uint64_t> runNs_{0};
};

} // namespace perfbench

#endif // PERFBENCH_DECORATORS_H
