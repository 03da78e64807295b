/**
 * @file
 * offline_vision: the ResNet-50 proxy behind a sharded ServingSut,
 * driven by the LoadGen's Offline scenario over the wall-clock
 * executor.
 */

#include <algorithm>
#include <memory>

#include "common/parallel.h"
#include "data/classification.h"
#include "loadgen/loadgen.h"
#include "models/classifier.h"
#include "nn/activations.h"
#include "run_state.h"
#include "serving/serving_sut.h"
#include "serving_totals.h"
#include "sim/real_executor.h"
#include "sut/nn_sut.h"
#include "sut/serving_adapters.h"

namespace perfbench {

namespace {

namespace data = mlperf::data;
namespace models = mlperf::models;
namespace sut = mlperf::sut;

constexpr int kSetupReps = 5;
constexpr int64_t kMaxBatch = 8;
/** Samples in one Offline query (a whole query fits the queue). */
constexpr uint64_t kOfflineSamples = 4096;
/** Batches per TPOT window: a quarter of a query's 512 batches. */
constexpr size_t kTpotWindow = 128;

/** The classifier, its data and the eager-model answer per sample. */
struct Vision
{
    std::unique_ptr<data::ClassificationDataset> dataset;
    std::unique_ptr<models::ImageClassifier> model;
    std::unique_ptr<sut::ClassificationQsl> qsl;
    std::vector<int64_t> eager;

    Oracle
    oracle() const
    {
        return [this](loadgen::QuerySampleIndex index,
                      const std::string &data) {
            return index < eager.size() &&
                   sut::decodeClassification(data) == eager[index];
        };
    }
};

/** Build the system kSetupReps times; keep the last build. */
Vision
buildVision(RunState &state)
{
    data::ClassificationConfig config;
    config.samplesPerClass = 2;  // 80 images
    std::vector<double> data_s, model_s, qsl_s;
    Vision v;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double t0 = wallSeconds();
        auto dataset = std::make_unique<data::ClassificationDataset>(config);
        const double t1 = wallSeconds();
        auto model = std::make_unique<models::ImageClassifier>(
            models::ImageClassifier::resnet50Proxy(*dataset));
        const double t2 = wallSeconds();
        const auto count = static_cast<uint64_t>(dataset->size());
        auto qsl = std::make_unique<sut::ClassificationQsl>(*dataset, count);
        std::vector<loadgen::QuerySampleIndex> all(count);
        for (uint64_t i = 0; i < count; ++i)
            all[i] = i;
        qsl->loadSamplesToRam(all);
        const double t3 = wallSeconds();
        data_s.push_back(t1 - t0);
        model_s.push_back(t2 - t1);
        qsl_s.push_back(t3 - t2);
        state.noteSetup(t3 - t0);
        v.qsl = std::move(qsl);
        v.model = std::move(model);
        v.dataset = std::move(dataset);
    }
    state.setLayer("data.build_s", median(data_s));
    state.setLayer("models.build_s", median(model_s));
    state.setLayer("sut.qsl_load_s", median(qsl_s));

    // The oracle: the eager (uncompiled) network's class per sample.
    v.eager.resize(static_cast<size_t>(v.dataset->size()));
    for (int64_t i = 0; i < v.dataset->size(); ++i) {
        v.eager[static_cast<size_t>(i)] = mlperf::nn::argmaxRows(
            v.model->network().forward(v.dataset->image(i)))[0];
    }
    return v;
}

/** Traced microphase: the classifier's public forward at b1 and b8. */
void
measureForward(RunState &state, const Vision &v)
{
    std::vector<mlperf::tensor::Tensor> images;
    for (int64_t i = 0; i < kMaxBatch; ++i)
        images.push_back(v.dataset->image(i));
    std::vector<const mlperf::tensor::Tensor *> b1 = {&images[0]};
    std::vector<const mlperf::tensor::Tensor *> b8;
    for (const auto &image : images)
        b8.push_back(&image);
    auto time = [&](const std::vector<const mlperf::tensor::Tensor *> &b) {
        for (int i = 0; i < 3; ++i)
            v.model->classifyBatch(b);
        std::vector<double> seconds;
        for (int i = 0; i < 21; ++i) {
            const double t0 = wallSeconds();
            v.model->classifyBatch(b);
            seconds.push_back(wallSeconds() - t0);
        }
        return median(seconds);
    };
    const double s1 = time(b1);
    const double s8 = time(b8);
    const uint64_t flops = v.model->flopsPerInput();
    state.setLayer("nn.forward_b1_us", s1 * 1e6);
    state.setLayer("nn.forward_b8_us", s8 * 1e6);
    state.setLayer("nn.gflops_b1", gflopsPerSecond(flops, 1, s1));
    state.setLayer("nn.gflops_b8", gflopsPerSecond(flops, kMaxBatch, s8));
}

/** One LoadGen run of the classifier behind a ServingSut. */
struct VisionRun
{
    loadgen::TestResult result;
    std::unique_ptr<RunLedger> ledger;
    serving::StatsSnapshot stats;
    std::vector<BatchRecord> batches;
    uint64_t steals = 0, ringFallbacks = 0, fastPathLocks = 0;
    uint64_t events = 0, callbackNs = 0;
    int64_t workers = 0;
    double wallS = 0.0;
};

VisionRun
runVision(RunState &state, const Vision &v, SpanLog &spans,
          const serving::ServingOptions &options,
          const loadgen::TestSettings &settings, uint64_t capacity)
{
    VisionRun run;
    sim::RealExecutor real;
    spans.setEpoch(static_cast<Tick>(wallSeconds() * 1e9));
    CountingExecutor executor(real, spans.enabled());
    sut::ClassifierBatchInference engine(*v.model, *v.qsl);
    TimedInference timed(engine, executor, spans);
    run.ledger = std::make_unique<RunLedger>(capacity, v.oracle());
    timed.attach(run.ledger.get());
    serving::ServingSut system(executor, timed, options);
    TimedSut outer(system, executor, *run.ledger, spans);
    loadgen::LoadGen lg(executor);
    const double t0 = wallSeconds();
    run.result = lg.startTest(outer, *v.qsl, settings);
    run.wallS = wallSeconds() - t0;
    system.shutdown();
    run.stats = system.stats();
    run.workers = run.stats.workers;
    if (serving::ShardedWorkerPool *pool = system.shardedPool()) {
        run.steals = pool->steals();
        run.ringFallbacks = pool->ringFallbacks();
        run.fastPathLocks = pool->fastPathLockAcquisitions();
    }
    run.batches = timed.takeBatches();
    run.events = executor.scheduled();
    run.callbackNs = executor.callbackNs();
    state.noteThreads(outer.observedThreads());
    return run;
}

/**
 * Fold an Offline run's serving-layer observations into @p totals and
 * export the first samples' stages as spans (the span log's epoch is
 * still this run's).
 */
void
foldServing(ServingTotals &totals, const VisionRun &run, SpanLog &spans)
{
    const auto &timeline = run.result.timeline;
    if (timeline.empty())
        return;
    // One query: every sample is scheduled and issued with it.
    const loadgen::QueryTiming &q = timeline[0];
    const auto &records = run.ledger->records();
    Tick last_done = 0;
    for (size_t id = 0; id < records.size(); ++id) {
        const SampleRecord &rec = records[id];
        if (!rec.answered || rec.computeStart == 0)
            continue;
        const std::vector<Tick> stamps = {q.scheduled, q.issued,
                                          rec.computeStart, rec.computeEnd,
                                          rec.done};
        const StageSplit split = splitStages(stamps, rec.done);
        if (id < kStageSpanSamples) {
            addStageSpans(spans, static_cast<int64_t>(id), stamps,
                          {"loadgen.drift", "serving.wait", "sut.compute",
                           "serving.deliver"});
        }
        totals.noteStages(split);
        totals.driftUs.push_back(static_cast<double>(split.stages[0]) / 1e3);
        totals.waitUs.push_back(static_cast<double>(split.stages[1]) / 1e3);
        totals.deliverUs.push_back(static_cast<double>(split.stages[3]) /
                                   1e3);
        last_done = std::max(last_done, rec.done);
    }
    // The query's LoadGen latency ends with its last sample.
    totals.residualUs.push_back(
        (static_cast<double>(q.completed) - static_cast<double>(last_done)) /
        1e3);
    totals.foldStats(run.stats, run.result, run.ledger->counts(),
                     run.workers);
    totals.foldBatches(run.batches, kMaxBatch);
    totals.steals += run.steals;
    totals.ringFallbacks += run.ringFallbacks;
    totals.fastPathLocks += run.fastPathLocks;
    totals.events += run.events;
    totals.callbackNs += run.callbackNs;
    totals.runMs.push_back(run.wallS * 1e3);
    if (run.result.issuedTailLatencyNs > 0) {
        totals.correctedTailRatio.push_back(
            static_cast<double>(run.result.correctedTailLatencyNs) /
            static_cast<double>(run.result.issuedTailLatencyNs));
    }
}

/**
 * The vision TPOT: compute time per answer (runBatch time / samples),
 * ms, over windows of kTpotWindow consecutive batches of one query
 * (both workers' batches, in completion order). A window is the
 * batch-sequence analogue of a stream's mean inter-token time; a
 * single 2-4 ms batch would measure the host's preemptions instead.
 */
std::vector<double>
perSampleComputeMs(const std::vector<BatchRecord> &batches)
{
    std::vector<double> out;
    for (size_t start = 0; start + kTpotWindow <= batches.size();
         start += kTpotWindow) {
        double ns = 0.0, samples = 0.0;
        for (size_t i = start; i < start + kTpotWindow; ++i) {
            ns += static_cast<double>(batches[i].ns);
            samples += batches[i].size;
        }
        out.push_back(ns / 1e6 / samples);
    }
    return out;
}

/** Outcome of one measured Offline phase. */
struct OfflinePhase
{
    double throughput = 0.0;   //!< median over queries, samples/s
    double queryS = 0.0;       //!< median wall time of one query
    std::vector<double> latencyMs;
    std::vector<double> tpotMs;
};

OfflinePhase
offlinePhase(RunState &state, const Vision &v, SpanLog &spans,
             const std::string &name, double seconds, uint64_t min_queries,
             uint64_t tag, ServingTotals *totals)
{
    serving::ServingOptions options;
    options.shards = 2;
    options.workers = 2;
    options.maxBatch = kMaxBatch;
    // Hold the whole query: the default 64-batch queue sheds most of
    // an Offline query (see README.md, "Known defects").
    options.queueCapacityBatches = kOfflineSamples;

    OfflinePhase phase;
    std::vector<double> rates, walls;
    const double start = wallSeconds();
    // Another query while one of median length still fits.
    for (uint64_t rep = 0; rep < min_queries ||
                           wallSeconds() - start + median(walls) <= seconds;
         ++rep) {
        auto settings = loadgen::TestSettings::forScenario(
            loadgen::Scenario::Offline);
        settings.offlineSampleCount = kOfflineSamples;
        settings.sampleIndexSeed =
            deriveSeed(state.options().seed, tag * 1000 + rep);
        settings.recordTimeline = true;
        VisionRun run =
            runVision(state, v, spans, options, settings, kOfflineSamples);
        state.account(name, run.ledger->counts(), run.wallS);
        Tick first = ~Tick{0}, last = 0;
        for (const SampleRecord &rec : run.ledger->records()) {
            if (!rec.answered)
                continue;
            first = std::min(first, rec.issued);
            last = std::max(last, rec.done);
            phase.latencyMs.push_back(
                static_cast<double>(rec.done - rec.issued) / 1e6);
        }
        if (last > first) {
            rates.push_back(static_cast<double>(run.ledger->counts().ok) *
                            1e9 / static_cast<double>(last - first));
        }
        walls.push_back(run.wallS);
        const auto tpot = perSampleComputeMs(run.batches);
        phase.tpotMs.insert(phase.tpotMs.end(), tpot.begin(), tpot.end());
        if (totals != nullptr)
            foldServing(*totals, run, spans);
    }
    phase.throughput = median(rates);
    phase.queryS = median(walls);
    state.meta(name + ".queries", std::to_string(rates.size()));
    return phase;
}

} // namespace

void
runOfflineVision(RunState &state)
{
    ThreadPlan plan;
    plan.workers = 2;   // 2 shards x 1 worker
    plan.drainers = 1;  // the sharded pool's completion drainer
    state.setPlan(plan);
    mlperf::ThreadPool::setGlobalThreads(plan.intraOp);

    const Vision v = buildVision(state);
    const double seconds = state.options().seconds;
    offlinePhase(state, v, state.noSpans(), "warmup", 0.0, 1, 1, nullptr);

    if (!state.options().traced) {
        const OfflinePhase p =
            offlinePhase(state, v, state.noSpans(), "measure", seconds, 3,
                         2, nullptr);
        const Tail lat50 = state.tail("latency_p50_ms", p.latencyMs, 0.5);
        const Tail lat99 = state.tail("latency_p99_ms", p.latencyMs, 0.99);
        state.setEndToEnd("throughput_sps", p.throughput);
        state.setEndToEnd("max_qps", p.throughput);
        state.setEndToEnd("latency_p50_ms", lat50.value);
        state.setEndToEnd("latency_p99_ms", lat99.value);
        state.setEndToEnd("ttft_p50_ms", lat50.value);
        state.setEndToEnd("ttft_p99_ms", lat99.value);
        state.setEndToEnd("tpot_p50_ms",
                          state.tail("tpot_p50_ms", p.tpotMs, 0.5).value);
        // Reported, not gated: its spread across seeds is the
        // host's (see README.md).
        state.meta("tpot_p99_ms",
                   jsonNumber(state.tail("tpot_p99_ms", p.tpotMs, 0.99)
                                  .value));
        state.setEndToEnd("search_s", p.queryS);
        return;
    }

    const OfflinePhase ref = offlinePhase(state, v, state.noSpans(),
                                          "reference", seconds / 3, 3,
                                          3, nullptr);
    ServingTotals totals;
    const OfflinePhase traced = offlinePhase(state, v, state.spans(),
                                             "traced", seconds * 2 / 3, 3,
                                             4, &totals);
    totals.publish(state);
    state.setLayer("trace.overhead_frac",
                   ref.throughput / traced.throughput - 1.0);
    measureForward(state, v);
}

} // namespace perfbench
