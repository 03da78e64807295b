/**
 * @file
 * Continuous vs. static batching for the autoregressive streaming
 * decoder.
 *
 * A statically batched decode pays two taxes the paper's fixed-batch
 * throughput numbers hide: finished slots burn equal-FLOPs padding at
 * the speed of the batch's longest member, and arrivals wait for the
 * whole batch to drain. Continuous (in-flight) batching re-forms the
 * batch every round, so sustained tokens/sec tracks the mean output
 * length instead of the batch max. This bench sweeps output-length
 * variance (low: 12-16-word sources; high: 2-64) and drives the same
 * DecoderEngine through both modes, gating on:
 *
 *  - continuous >= 1.5x static sustained tokens/sec at high variance,
 *    judged on the median of 5 paired (static, continuous) ratios
 *    over 3,072-sequence runs (about a second per mode per run)
 *  - continuous TTFT p99 no worse than static
 *  - zero sequences shed, every sequence completed, in both modes
 *  - streamed output bit-identical to the eager reference decode
 *    regardless of batch composition
 *  - zero steady-state heap allocations in the decode path (measured
 *    with a binary-wide operator-new counter around a direct engine
 *    drive; result() string building is the documented per-sequence
 *    exception and is excluded by not calling it)
 *  - zero instrumented-lock acquisitions inside pump() rounds
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_json.h"
#include "data/translation.h"
#include "models/stream_decoder.h"
#include "report/table.h"
#include "serving/continuous_batcher.h"
#include "sim/real_executor.h"
#include "stats/percentile.h"
#include "sut/decode_adapters.h"
#include "sut/nn_sut.h"

// Binary-wide heap-allocation counter (the bench_microkernels idiom):
// the steady-state decode path's headline claim is zero.
static std::atomic<long> g_heap_allocs{0};

void *
operator new(std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace mlperf;

namespace {

constexpr size_t kSlots = 8;
/** Sequences per measured run: enough that each mode's window lasts
 *  about a second at high variance, so host noise averages out. */
constexpr uint64_t kSequences = 3072;
constexpr int kReps = 5;  //!< paired reps: wall-clock noise control

/** Records per-sequence TTFT (issue to first token) and responses. */
class StreamProbe : public loadgen::ResponseDelegate
{
  public:
    explicit StreamProbe(sim::Executor &executor) : executor_(executor)
    {
    }

    void
    markIssued(uint64_t count)
    {
        issuedAt_.assign(count, executor_.now());
    }

    void
    querySampleFirstToken(loadgen::ResponseId id) override
    {
        ttfts_[id] = executor_.now() - issuedAt_[id];
    }

    void
    querySamplesComplete(
        const std::vector<loadgen::QuerySampleResponse> &responses)
        override
    {
        for (const auto &r : responses)
            data_[r.id] = r.data;
    }

    std::vector<uint64_t>
    ttftSamples() const
    {
        std::vector<uint64_t> out;
        out.reserve(ttfts_.size());
        for (const auto &entry : ttfts_)
            out.push_back(entry.second);
        return out;
    }

    std::map<loadgen::ResponseId, std::string> data_;

  private:
    sim::Executor &executor_;
    std::vector<sim::Tick> issuedAt_;
    std::map<loadgen::ResponseId, uint64_t> ttfts_;
};

struct ModeResult
{
    double tokensPerSec = 0.0;
    uint64_t ttftP99 = 0;
    uint64_t completed = 0;
    uint64_t shed = 0;
    uint64_t padSteps = 0;
    double slotUtilization = 0.0;
    uint64_t fastPathLocks = 0;
    uint64_t poolGrowths = 0;
    uint64_t mismatches = 0;  //!< responses != eager reference
};

std::vector<loadgen::QuerySample>
makeSamples(uint64_t count, uint64_t dataset_size)
{
    std::vector<loadgen::QuerySample> samples;
    samples.reserve(count);
    for (uint64_t i = 0; i < count; ++i)
        samples.push_back({i, i % dataset_size});
    return samples;
}

/** Eager-reference response string per dataset index. */
std::vector<std::string>
referenceResponses(const data::TranslationDataset &dataset,
                   const nn::DecoderModel &model)
{
    std::vector<std::string> out;
    for (int64_t i = 0; i < dataset.size(); ++i)
        out.push_back(sut::encodeTokens(
            model.referenceDecode(dataset.source(i))));
    return out;
}

ModeResult
runModeOnce(const data::TranslationDataset &dataset,
            const nn::DecoderModel &model,
            const std::vector<std::string> &expected,
            serving::BatchingMode mode)
{
    sut::TranslationQsl qsl(dataset);
    std::vector<loadgen::QuerySampleIndex> all;
    for (int64_t i = 0; i < dataset.size(); ++i)
        all.push_back(static_cast<uint64_t>(i));
    qsl.loadSamplesToRam(all);

    sim::RealExecutor ex;
    sut::DecoderEngine engine(model, qsl, kSlots);
    serving::ContinuousBatcherOptions opts;
    opts.mode = mode;
    opts.startThread = false;  // direct drive: measure compute, not parking
    opts.ringCapacity = kSequences;  // the whole burst is admitted
    serving::ContinuousBatcher batcher(engine, ex, opts);
    StreamProbe probe(ex);

    const auto samples =
        makeSamples(kSequences, static_cast<uint64_t>(dataset.size()));
    probe.markIssued(kSequences);
    const sim::Tick t0 = ex.now();
    batcher.issueQuery(samples, probe);
    while (!batcher.idle())
        batcher.pump();
    const sim::Tick t1 = ex.now();

    const serving::BatcherCounters c = batcher.counters();
    ModeResult r;
    r.completed = c.completed;
    r.shed = c.shed;
    r.padSteps = c.padSteps;
    r.fastPathLocks = c.fastPathLockAcquisitions;
    r.poolGrowths = engine.poolGrowths();
    r.tokensPerSec = static_cast<double>(c.tokens) *
                     static_cast<double>(sim::kNsPerSec) /
                     static_cast<double>(t1 - t0);
    r.slotUtilization =
        c.decodeRounds > 0
            ? static_cast<double>(c.tokens) /
                  (static_cast<double>(c.decodeRounds) * kSlots)
            : 0.0;
    r.ttftP99 = stats::LatencySummary::from(probe.ttftSamples()).p99;
    for (const auto &entry : probe.data_) {
        if (entry.second != expected[entry.first % expected.size()])
            ++r.mismatches;
    }
    return r;
}

/**
 * Merge one repetition into the reported result: best on the timing
 * metrics (one descheduled rep must not flip the gate), worst on the
 * correctness counters (one bad rep must still fail).
 */
void
mergeRep(ModeResult &acc, const ModeResult &r)
{
    acc.tokensPerSec = std::max(acc.tokensPerSec, r.tokensPerSec);
    acc.ttftP99 = std::min(acc.ttftP99, r.ttftP99);
    acc.completed = std::min(acc.completed, r.completed);
    acc.shed = std::max(acc.shed, r.shed);
    acc.padSteps = std::max(acc.padSteps, r.padSteps);
    acc.slotUtilization =
        std::max(acc.slotUtilization, r.slotUtilization);
    acc.fastPathLocks = std::max(acc.fastPathLocks, r.fastPathLocks);
    acc.poolGrowths = std::max(acc.poolGrowths, r.poolGrowths);
    acc.mismatches = std::max(acc.mismatches, r.mismatches);
}

struct AxisRun
{
    ModeResult st, ct;
    /** Paired per-rep ratios (continuous / static): median gates. */
    double speedupMin = 0.0, speedup = 0.0, speedupMax = 0.0;
};

/**
 * Paired repetitions: each rep runs static then continuous back to
 * back and contributes one speedup ratio, so slow machine phases hit
 * both sides of the ratio; the gate uses the median ratio.
 */
AxisRun
runAxis(const data::TranslationDataset &dataset,
        const nn::DecoderModel &model)
{
    AxisRun out;
    const std::vector<std::string> expected =
        referenceResponses(dataset, model);
    std::vector<double> ratios;
    for (int rep = 0; rep < kReps; ++rep) {
        const ModeResult st = runModeOnce(dataset, model, expected,
                                          serving::BatchingMode::Static);
        const ModeResult ct = runModeOnce(
            dataset, model, expected, serving::BatchingMode::Continuous);
        if (st.tokensPerSec > 0)
            ratios.push_back(ct.tokensPerSec / st.tokensPerSec);
        if (rep == 0) {
            out.st = st;
            out.ct = ct;
        } else {
            mergeRep(out.st, st);
            mergeRep(out.ct, ct);
        }
    }
    std::sort(ratios.begin(), ratios.end());
    if (!ratios.empty()) {
        out.speedupMin = ratios.front();
        out.speedup = ratios[ratios.size() / 2];
        out.speedupMax = ratios.back();
    }
    return out;
}

/**
 * Steady-state allocation count per churned sequence, driving the
 * engine directly (prefill/step/release; no result() strings). The
 * first pass through every slot warms the pool; the measured window
 * must allocate nothing.
 */
long
steadyStateAllocs(const data::TranslationDataset &dataset,
                  const nn::DecoderModel &model)
{
    sut::TranslationQsl qsl(dataset);
    std::vector<loadgen::QuerySampleIndex> all;
    for (int64_t i = 0; i < dataset.size(); ++i)
        all.push_back(static_cast<uint64_t>(i));
    qsl.loadSamplesToRam(all);

    sut::DecoderEngine engine(model, qsl, kSlots);
    const uint64_t n = static_cast<uint64_t>(dataset.size());
    uint64_t next = 0;

    bool occupied[kSlots] = {};  // outside churn: not a decode cost
    auto churn = [&](uint64_t sequences) {
        for (bool &o : occupied)
            o = false;
        uint64_t started = 0, finished = 0;
        while (finished < sequences) {
            for (size_t s = 0; s < kSlots && started < sequences; ++s) {
                if (!occupied[s]) {
                    engine.prefill(s, next++ % n);
                    occupied[s] = true;
                    ++started;
                }
            }
            for (size_t s = 0; s < kSlots; ++s) {
                if (!occupied[s])
                    continue;
                if (engine.step(s).finished) {
                    engine.release(s);
                    occupied[s] = false;
                    ++finished;
                }
            }
        }
    };

    churn(2 * kSlots);  // warmup: every slot exercised past capacity
    const long before = g_heap_allocs.load(std::memory_order_relaxed);
    churn(64);
    return g_heap_allocs.load(std::memory_order_relaxed) - before;
}

data::TranslationConfig
axisConfig(int64_t min_len, int64_t max_len)
{
    data::TranslationConfig config;
    config.sampleCount = 128;
    config.minLength = min_len;
    config.maxLength = max_len;
    // A wide output projection makes the decode step dominate the
    // (mode-independent) prefill encoder pass, so the measured ratio
    // reflects the batching policy rather than shared overhead.
    config.vocabSize = 2048;
    return config;
}

} // namespace

int
main()
{
    std::printf("%s", report::banner(
        "Continuous vs. static batching, autoregressive streaming "
        "decoder (8 slots)").c_str());

    struct Axis
    {
        const char *name;
        int64_t minLen, maxLen;
    };
    const Axis axes[] = {{"low_variance", 12, 16},
                         {"high_variance", 2, 64}};

    int failures = 0;
    bench::JsonWriter json;
    json.beginObject()
        .field("benchmark", "decode_batching")
        .field("slots", static_cast<uint64_t>(kSlots))
        .field("sequences", kSequences)
        .field("cpus", static_cast<uint64_t>(std::max(
                           1u, std::thread::hardware_concurrency())))
        .field("reps", static_cast<uint64_t>(kReps));
    json.beginArray("axes");

    report::Table table({"Axis", "Mode", "Tokens/s", "TTFT p99 (us)",
                         "Pad steps", "Slot util"});
    AxisRun high_variance;
    for (const Axis &axis : axes) {
        const data::TranslationConfig config =
            axisConfig(axis.minLen, axis.maxLen);
        const data::TranslationDataset dataset(config);
        // Sharpen the positional query so attention stays locked to
        // slot t and EOS fires at the source's EOS slot: output
        // length tracks source length, making the sweep's length
        // variance the real experimental axis (with the default gain,
        // attention spill ends most long sentences early and both
        // modes mostly measure the shared prefill pass).
        models::TranslatorArch arch;
        arch.queryGain = 16.0;
        const nn::DecoderModel model =
            models::makeStreamDecoder(dataset, arch);

        const AxisRun run = runAxis(dataset, model);
        const ModeResult &st = run.st;
        const ModeResult &ct = run.ct;
        const long allocs = steadyStateAllocs(dataset, model);
        const double speedup = run.speedup;
        if (axis.maxLen > 16)
            high_variance = run;

        for (const ModeResult *r : {&st, &ct}) {
            const bool is_static = r == &st;
            table.addRow(
                {axis.name,
                 serving::batchingModeName(
                     is_static ? serving::BatchingMode::Static
                               : serving::BatchingMode::Continuous),
                 report::fmt(r->tokensPerSec, 0),
                 report::fmt(static_cast<double>(r->ttftP99) / 1000.0,
                             0),
                 report::fmt(static_cast<double>(r->padSteps), 0),
                 report::fmt(r->slotUtilization, 2)});
        }

        // ---- Invariants (both modes).
        for (const ModeResult *r : {&st, &ct}) {
            if (r->completed != kSequences || r->shed != 0) {
                std::printf("FAIL [%s]: dropped sequences "
                            "(completed %llu, shed %llu)\n",
                            axis.name,
                            static_cast<unsigned long long>(
                                r->completed),
                            static_cast<unsigned long long>(r->shed));
                ++failures;
            }
            if (r->mismatches != 0) {
                std::printf("FAIL [%s]: %llu responses diverged from "
                            "the eager reference\n",
                            axis.name,
                            static_cast<unsigned long long>(
                                r->mismatches));
                ++failures;
            }
            if (r->fastPathLocks != 0) {
                std::printf("FAIL [%s]: %llu instrumented lock "
                            "acquisitions on the decode fast path\n",
                            axis.name,
                            static_cast<unsigned long long>(
                                r->fastPathLocks));
                ++failures;
            }
            if (r->poolGrowths != 0) {
                std::printf("FAIL [%s]: decode-state pool grew %llu "
                            "times in steady state\n",
                            axis.name,
                            static_cast<unsigned long long>(
                                r->poolGrowths));
                ++failures;
            }
        }
        if (allocs != 0) {
            std::printf("FAIL [%s]: %ld heap allocations in the "
                        "steady-state decode window\n",
                        axis.name, allocs);
            ++failures;
        }
        // "No worse" with a 10% noise allowance: at low variance the
        // modes are legitimately near-equal (little padding to save),
        // so a strict comparison would gate on scheduler jitter.
        if (static_cast<double>(ct.ttftP99) >
            1.10 * static_cast<double>(st.ttftP99)) {
            std::printf("FAIL [%s]: continuous TTFT p99 (%llu ns) "
                        "worse than static (%llu ns)\n",
                        axis.name,
                        static_cast<unsigned long long>(ct.ttftP99),
                        static_cast<unsigned long long>(st.ttftP99));
            ++failures;
        }

        json.beginObject()
            .field("axis", axis.name)
            .field("min_source_len", static_cast<int>(axis.minLen))
            .field("max_source_len", static_cast<int>(axis.maxLen))
            .field("static_tokens_per_sec", st.tokensPerSec, 1)
            .field("continuous_tokens_per_sec", ct.tokensPerSec, 1)
            .field("speedup_vs_static", speedup)
            .field("speedup_min", run.speedupMin)
            .field("speedup_max", run.speedupMax)
            .field("static_ttft_p99_ns", st.ttftP99)
            .field("continuous_ttft_p99_ns", ct.ttftP99)
            .field("static_pad_steps", st.padSteps)
            .field("continuous_pad_steps", ct.padSteps)
            .field("static_slot_utilization", st.slotUtilization)
            .field("continuous_slot_utilization", ct.slotUtilization)
            .field("dropped",
                   st.shed + ct.shed +
                       (kSequences - st.completed) +
                       (kSequences - ct.completed))
            .field("steady_state_allocs",
                   static_cast<uint64_t>(allocs < 0 ? 0 : allocs))
            .field("fast_path_locks",
                   st.fastPathLocks + ct.fastPathLocks)
            .field("bit_identical",
                   st.mismatches == 0 && ct.mismatches == 0)
            .endObject();
    }
    json.endArray();

    std::printf("%s", table.str().c_str());
    std::printf("\nHigh-variance speedup (continuous / static): "
                "%.2fx median of %d paired reps, range %.2f-%.2fx "
                "(gate: median >= 1.50x)\n",
                high_variance.speedup, kReps, high_variance.speedupMin,
                high_variance.speedupMax);
    if (high_variance.speedup < 1.5) {
        std::printf("FAIL: continuous batching must sustain >= 1.5x "
                    "static tokens/sec at high length variance\n");
        ++failures;
    }
    json.field("high_variance_speedup", high_variance.speedup)
        .field("pass", failures == 0)
        .endObject();
    if (!bench::writeBenchJson(json.str(), "BENCH_decode.json"))
        std::printf("WARN: could not write bench JSON\n");

    std::printf("\nStatic batching pays the batch max: finished "
                "slots pad until the longest member\ndrains, and "
                "joiners wait out the drain. Continuous batching "
                "refills slots the round\nafter EOS, so throughput "
                "tracks the mean output length — the gap is the "
                "length\nvariance, which is why the high-variance "
                "axis is the gated one.\n");
    return failures == 0 ? 0 : 1;
}
