/**
 * @file
 * Continuous (in-flight) batching for autoregressive token streaming.
 *
 * A request-batched server holds a decode batch together until every
 * member finishes: short sequences sit as dead padding at the speed
 * of the longest, and arriving requests wait for the whole batch to
 * drain. Continuous batching re-forms the batch every decode round —
 * the moment a sequence emits EOS its slot is released and a queued
 * request is prefilled into it, so sustained tokens/sec tracks the
 * *mean* sequence length instead of the batch max, and TTFT stops
 * paying for strangers' long tails.
 *
 * The ContinuousBatcher is a LoadGen SystemUnderTest for the
 * TokenStream scenario. Structure:
 *
 *   issueQuery (any thread)           decode loop (one thread)
 *   ------------------------          ---------------------------
 *   per-tenant AdmissionController    pump():
 *   charge (optional)                   admit queued seqs into free
 *   lock-free MpscRing push   ----->    slots (prefill)
 *   (full ring => Shed)                 one decodeStep per occupied
 *                                       slot; first token fires
 *                                       querySampleFirstToken
 *                                       EOS => complete + release
 *                                       slot (continuous) / pad until
 *                                       the batch drains (static)
 *
 * Static mode is the honest baseline, not a strawman: finished slots
 * burn a full equal-FLOPs padStep per round (what a padded batch
 * actually costs) and admission reopens only once every slot has
 * drained. Both modes step every slot through the same decode path,
 * whose dense ops (LSTM gates, vocab projection) run on the
 * batch-invariant prepacked GEMM: a row's result never depends on how
 * many rows share the call or what they hold. So a sequence's tokens
 * are bit-identical regardless of batch composition — the property
 * that makes mid-batch join/leave safe at all, and that would keep a
 * future gathered [slots x hidden] step bit-identical too.
 *
 * Fast-path contract: one pump() round acquires zero instrumented
 * serving locks (LockProbe); the delta is accumulated per round and
 * exported as fastPathLockAcquisitions. The idle condvar the decode
 * thread parks on when there is no work is outside the measured
 * region by construction.
 *
 * EOS/admission race rules (see DESIGN.md "Token streaming &
 * continuous batching"): admission runs at the head of each round, so
 * a slot freed by EOS in round R is admissible from round R+1 on; and
 * both admission and release are performed only by the decode thread,
 * so no producer can observe a half-released slot. TTFT SLO outcomes
 * (first token vs. the arrival timestamp carried through the ring)
 * feed ServingStats::recordSloOutcome, the same violation-rate signal
 * the shard autoscaler consumes.
 */

#ifndef MLPERF_SERVING_CONTINUOUS_BATCHER_H
#define MLPERF_SERVING_CONTINUOUS_BATCHER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "loadgen/sut.h"
#include "loadgen/types.h"
#include "serving/mpsc_ring.h"
#include "serving/resilience.h"
#include "serving/serving_stats.h"
#include "sim/executor.h"

namespace mlperf {
namespace serving {

/** One decode step's outcome for a slot. */
struct StepOutcome
{
    int64_t token = 0;
    bool finished = false;
};

/**
 * What the batcher schedules: a fixed number of sequence slots, each
 * holding persistent decode state between steps. Implementations live
 * above the serving layer (src/sut/decode_adapters.h wraps the nn
 * DecoderModel); the batcher never sees model types. All calls are
 * made from the single decode thread.
 */
class SequenceDecoder
{
  public:
    virtual ~SequenceDecoder() = default;

    /** Concurrent sequence capacity (the decode batch width). */
    virtual size_t slotCount() const = 0;

    /** Prefill @p index's source into @p slot (must be free). */
    virtual void prefill(size_t slot, loadgen::QuerySampleIndex index) = 0;

    /** Advance @p slot by one output token. */
    virtual StepOutcome step(size_t slot) = 0;

    /**
     * Burn one step of equal-FLOPs padding compute against @p slot's
     * frozen state (static mode's drain tax). No state advances.
     */
    virtual void padStep(size_t slot) = 0;

    /** Serialized result for a finished slot (response data). */
    virtual std::string result(size_t slot) const = 0;

    /** Output tokens emitted by @p slot so far. */
    virtual uint64_t tokenCount(size_t slot) const = 0;

    /** Return @p slot's state to the pool; the slot becomes free. */
    virtual void release(size_t slot) = 0;
};

enum class BatchingMode
{
    Continuous,  //!< per-round admission into freed slots
    Static,      //!< pad finished slots; admit only on full drain
};

std::string batchingModeName(BatchingMode mode);

struct ContinuousBatcherOptions
{
    BatchingMode mode = BatchingMode::Continuous;
    /** Admission ring capacity (rounded up to a power of two). */
    size_t ringCapacity = 1024;
    /**
     * TTFT SLO judged per sequence (arrival to first token) and fed
     * to ServingStats::recordSloOutcome — the autoscaler's violation
     * signal. 0 disables the accounting.
     */
    sim::Tick ttftSloNs = 0;
    /**
     * Spawn the decode thread (wall-clock operation). When false the
     * owner drives pump() manually — deterministic single-threaded
     * mode for tests and direct-drive benches.
     */
    bool startThread = true;
    /** Decode-thread park time when idle (off the measured path). */
    uint64_t idleWaitUs = 50;
};

/** Relaxed-atomic counters, readable while the decode thread runs. */
struct BatcherCounters
{
    uint64_t admitted = 0;        //!< sequences accepted into the ring
    uint64_t shed = 0;            //!< rejected (ring full / budget)
    uint64_t completed = 0;       //!< sequences finished
    uint64_t tokens = 0;          //!< output tokens produced
    uint64_t padSteps = 0;        //!< equal-FLOPs padding steps burned
    uint64_t decodeRounds = 0;    //!< pump() rounds that did work
    uint64_t slotStepSum = 0;     //!< occupied slots summed over rounds
    uint64_t sloJudged = 0;       //!< sequences judged against the SLO
    uint64_t sloViolations = 0;   //!< ... of which missed TTFT
    /** Instrumented serving-lock acquisitions inside pump() rounds. */
    uint64_t fastPathLockAcquisitions = 0;
};

class ContinuousBatcher : public loadgen::SystemUnderTest
{
  public:
    /**
     * @param decoder slot engine; the batcher uses it only from the
     *        decode thread (or pump() caller).
     * @param executor timestamp source (RealExecutor for wall-clock
     *        runs, VirtualExecutor in deterministic tests). Must have
     *        a thread-safe now().
     * @param admission optional per-tenant budget; charged per
     *        sequence at issue, released at completion/shed.
     * @param stats optional sink for TTFT SLO outcomes.
     */
    ContinuousBatcher(SequenceDecoder &decoder, sim::Executor &executor,
                      ContinuousBatcherOptions options,
                      AdmissionController *admission = nullptr,
                      ServingStats *stats = nullptr);
    ~ContinuousBatcher() override;

    ContinuousBatcher(const ContinuousBatcher &) = delete;
    ContinuousBatcher &operator=(const ContinuousBatcher &) = delete;

    // ---- loadgen::SystemUnderTest
    std::string name() const override;
    void issueQuery(const std::vector<loadgen::QuerySample> &samples,
                    loadgen::ResponseDelegate &delegate) override;
    /** Blocks until the ring and every slot have drained. */
    void flushQueries() override;

    /**
     * One decode round: admit, step every occupied slot, complete and
     * (continuous) re-admit on EOS. Returns the number of decode plus
     * pad steps performed — 0 means idle. Only for manual-pump use
     * (startThread == false); the worker thread calls it internally
     * otherwise.
     */
    uint64_t pump();

    /** True when no sequence is queued or in a slot. */
    bool idle() const;

    BatcherCounters counters() const;

  private:
    struct PendingSeq
    {
        loadgen::QuerySample sample;
        loadgen::ResponseDelegate *delegate = nullptr;
        sim::Tick enqueuedAt = 0;
    };

    struct Slot
    {
        bool occupied = false;
        bool draining = false;  //!< static mode: finished, padding
        bool firstTokenSent = false;
        loadgen::QuerySample sample;
        loadgen::ResponseDelegate *delegate = nullptr;
        sim::Tick enqueuedAt = 0;
    };

    void admitInto(size_t slot, PendingSeq &seq);
    void completeSlot(size_t slot);
    void shed(const loadgen::QuerySample &sample,
              loadgen::ResponseDelegate &delegate, bool charged);
    void workerLoop();

    SequenceDecoder &decoder_;
    sim::Executor &executor_;
    ContinuousBatcherOptions options_;
    AdmissionController *admission_;
    ServingStats *stats_;

    MpscRing<PendingSeq> ring_;
    std::vector<Slot> slots_;
    size_t occupied_ = 0;   //!< slots holding a live (non-drained) seq
    size_t draining_ = 0;   //!< static mode: finished slots padding
    /** Reused completion buffer: capacity survives across sequences. */
    std::vector<loadgen::QuerySampleResponse> completionBuf_;

    std::atomic<uint64_t> admitted_{0};
    std::atomic<uint64_t> shed_{0};
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> tokens_{0};
    std::atomic<uint64_t> padSteps_{0};
    std::atomic<uint64_t> decodeRounds_{0};
    std::atomic<uint64_t> slotStepSum_{0};
    std::atomic<uint64_t> sloJudged_{0};
    std::atomic<uint64_t> sloViolations_{0};
    std::atomic<uint64_t> fastPathLocks_{0};
    std::atomic<size_t> inFlight_{0};  //!< queued + slotted sequences

    std::atomic<bool> stop_{false};
    std::mutex idleMutex_;
    std::condition_variable idleCv_;
    std::thread worker_;
};

/**
 * Shard routing for persistent sequences: hashes each sample to one
 * of several ContinuousBatcher lanes. A sequence's recurrent state
 * lives in its lane's decoder from prefill to EOS, so routing must be
 * (and is) sticky by construction — a sequence is never migrated.
 */
class DecodeLaneRouter : public loadgen::SystemUnderTest
{
  public:
    explicit DecodeLaneRouter(
        std::vector<std::unique_ptr<ContinuousBatcher>> lanes);
    ~DecodeLaneRouter() override = default;

    std::string name() const override;
    void issueQuery(const std::vector<loadgen::QuerySample> &samples,
                    loadgen::ResponseDelegate &delegate) override;
    void flushQueries() override;

    size_t laneCount() const { return lanes_.size(); }
    const ContinuousBatcher &lane(size_t i) const { return *lanes_[i]; }

    /** Sum of all lanes' counters. */
    BatcherCounters counters() const;

  private:
    std::vector<std::unique_ptr<ContinuousBatcher>> lanes_;
};

} // namespace serving
} // namespace mlperf

#endif // MLPERF_SERVING_CONTINUOUS_BATCHER_H
