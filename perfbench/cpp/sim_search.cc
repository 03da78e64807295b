/**
 * @file
 * sim_search: the paper's Server max-QPS search in virtual time, at
 * the full 270,336-query protocol (90,112 for GNMT), for one zoo
 * system and two models. No NN and no threads: the time goes to
 * LoadGen scheduling, the discrete-event queue, SimulatedSut batching
 * and the statistics, and the outputs are exact.
 */

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "harness/experiment.h"
#include "harness/search.h"
#include "loadgen/loadgen.h"
#include "run_state.h"
#include "sim/virtual_executor.h"
#include "sut/simulated_sut.h"
#include "sut/system_zoo.h"

namespace perfbench {

namespace {

namespace harness = mlperf::harness;
namespace models = mlperf::models;
namespace sut = mlperf::sut;

constexpr const char *kSystem = "dc-cpu-a";
constexpr int kSetupReps = 9;
/** Set-ups timed together per sample: one takes microseconds. */
constexpr int kSetupBatch = 200;
constexpr uint64_t kSutSeed = 0xDEC0DE;
/** --seconds per timed ResNet-50 search (one takes 7-12 s on 4
 *  shared CPUs). */
constexpr double kSecondsPerSearch = 10.0;

/**
 * The max-QPS values this search must reproduce, bit for bit. They
 * are properties of the LoadGen, the simulator and the zoo profile,
 * not of the benchmark seed (see README.md); a change that moves them
 * changes the paper protocol's answer and must say so.
 */
struct Expected
{
    models::TaskType task;
    const char *name;
    double maxQps;
};
constexpr Expected kExpected[] = {
    {models::TaskType::ImageClassificationHeavy, "resnet50",
     419.59051003979465},
    {models::TaskType::MachineTranslation, "gnmt", 380.65629948856406},
};

/** Counts-only library: the simulated SUT never reads samples. */
class CountQsl : public loadgen::QuerySampleLibrary
{
  public:
    std::string name() const override { return "count-qsl"; }
    uint64_t totalSampleCount() const override { return 4096; }
    uint64_t performanceSampleCount() const override { return 1024; }
    void loadSamplesToRam(
        const std::vector<loadgen::QuerySampleIndex> &) override
    {
    }
    void unloadSamplesFromRam(
        const std::vector<loadgen::QuerySampleIndex> &) override
    {
    }
};

const sut::HardwareProfile &
profile()
{
    for (const auto &p : sut::systemZoo()) {
        if (p.systemName == kSystem)
            return p;
    }
    throw std::runtime_error(std::string("zoo has no system ") + kSystem);
}

/**
 * The LoadGen's Server verdict, recomputed from the timeline: at most
 * maxOverLatencyFraction of the queries over the bound (errors count
 * as over), every query completed, and the run-length floors met.
 */
bool
serverVerdict(const loadgen::TestResult &result,
              const loadgen::TestSettings &settings,
              const AnswerCounts &counts)
{
    const auto &timeline = result.timeline;
    if (timeline.empty() || counts.failures() > 0)
        return false;
    uint64_t over = 0;
    Tick first = ~Tick{0}, last = 0;
    for (const loadgen::QueryTiming &q : timeline) {
        if (q.completed == 0 && q.scheduled != 0)
            return false;
        if (q.completed - q.scheduled > settings.targetLatencyNs)
            ++over;
        first = std::min(first, q.issued);
        last = std::max(last, q.completed);
    }
    const double over_fraction = static_cast<double>(over) /
                                 static_cast<double>(timeline.size());
    return over_fraction <= settings.maxOverLatencyFraction &&
           timeline.size() >= settings.minQueryCount &&
           last - first >= settings.minDurationNs;
}

/** What the decorators saw over all probes of the phase. */
struct Probes
{
    std::vector<double> wallMs, firstAnswerMs, perQueryMs;
    std::vector<double> driftUs;
    /** Wall time after each probe's first answer, and the queries
     *  answered in it. */
    double afterFirstS = 0.0;
    uint64_t afterFirstQueries = 0;
    uint64_t queries = 0, events = 0, ran = 0, callbackNs = 0, runNs = 0;
    uint64_t disagreements = 0, unanswered = 0;
};

/** One full search; returns its max-QPS. */
double
search(RunState &state, SpanLog &spans, const std::string &phase,
       models::TaskType task, Probes &probes)
{
    harness::ExperimentOptions paper;  // scale 1: the full protocol
    const loadgen::TestSettings base = harness::settingsForTask(
        task, loadgen::Scenario::Server, paper);
    const sut::HardwareProfile &system = profile();
    sut::SchedulerOptions scheduler;
    scheduler.batchWindowNs = paper.serverBatchWindowNs;
    CountQsl qsl;
    uint64_t probe_index = 0;

    const harness::QpsProbe probe = [&](double qps, uint64_t seed) {
        mlperf::sim::VirtualExecutor virt;
        CountingExecutor executor(virt, spans.enabled());
        sut::SimulatedSut inner(executor, system, sut::modelCostFor(task),
                                scheduler, paper.sutSeed);
        RunLedger ledger(0, nullptr);
        // One span per probe, not per simulated query (millions).
        TimedSut outer(inner, executor, ledger, state.noSpans());
        loadgen::TestSettings settings = base;
        settings.serverTargetQps = qps;
        settings.scheduleSeed = seed;
        // The simulated SUT's cost does not depend on which sample is
        // drawn, so this seed varies the inputs, not the answer.
        settings.sampleIndexSeed =
            deriveSeed(state.options().seed, ++probe_index);
        settings.recordTimeline = true;
        loadgen::LoadGen lg(executor);
        const double t0 = wallSeconds();
        loadgen::TestResult result = lg.startTest(outer, qsl, settings);
        const double t1 = wallSeconds();
        const AnswerCounts counts = ledger.counts();
        state.account(phase, counts, t1 - t0);
        state.noteThreads(outer.observedThreads());

        const bool valid = serverVerdict(result, settings, counts);
        if (valid != result.valid)
            ++probes.disagreements;
        probes.wallMs.push_back((t1 - t0) * 1e3);
        probes.firstAnswerMs.push_back((ledger.firstAnswerWall() - t0) *
                                       1e3);
        if (result.queryCount > 1) {
            probes.perQueryMs.push_back(
                (t1 - ledger.firstAnswerWall()) * 1e3 /
                static_cast<double>(result.queryCount - 1));
            probes.afterFirstS += t1 - ledger.firstAnswerWall();
            probes.afterFirstQueries += result.queryCount - 1;
        }
        for (const loadgen::QueryTiming &q : result.timeline) {
            if (probes.driftUs.size() < 1000000)
                probes.driftUs.push_back(
                    static_cast<double>(q.issued - q.scheduled) / 1e3);
        }
        probes.queries += result.queryCount;
        probes.events += virt.eventsProcessed();
        probes.ran += executor.ran();
        probes.callbackNs += executor.callbackNs();
        probes.runNs += executor.runNs();
        probes.unanswered += counts.issued - counts.answered;
        spans.add("loadgen.run", static_cast<Tick>(t0 * 1e9),
                  static_cast<Tick>(t1 * 1e9));
        result.valid = valid;
        return result;
    };

    mlperf::sim::VirtualExecutor roofline_executor;
    sut::SimulatedSut roofline(roofline_executor, system,
                               sut::modelCostFor(task), {}, paper.sutSeed);
    const double hi = std::max(
        1.0, roofline.steadyStateThroughput(
                 std::max<int64_t>(1, system.maxBatch)));
    return harness::findMaxQps(probe, hi, paper.search).maxQps;
}

/** A finished search: its wall time and its answer. */
struct Searched
{
    double seconds = 0.0;
    double maxQps = 0.0;
};

/** One search, checked against its recorded answer. */
Searched
checkedSearch(RunState &state, SpanLog &spans, const std::string &phase,
              const Expected &e, Probes &probes)
{
    const double t0 = wallSeconds();
    const double found = search(state, spans, phase, e.task, probes);
    const double seconds = wallSeconds() - t0;
    state.meta(std::string("max_qps.") + e.name, jsonNumber(found));
    if (found != e.maxQps) {
        state.report().fail(std::string(e.name) + " max-QPS " +
                            jsonNumber(found) + " != recorded " +
                            jsonNumber(e.maxQps));
    }
    return {seconds, found};
}

void
timeSetup(RunState &state)
{
    std::vector<double> samples;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double t0 = wallSeconds();
        for (int i = 0; i < kSetupBatch; ++i) {
            mlperf::sim::VirtualExecutor executor;
            const auto settings = harness::settingsForTask(
                models::TaskType::ImageClassificationHeavy,
                loadgen::Scenario::Server, harness::ExperimentOptions{});
            sut::SimulatedSut system(
                executor, profile(),
                sut::modelCostFor(models::TaskType::ImageClassificationHeavy),
                {}, kSutSeed);
            CountQsl qsl;
            (void)settings;
        }
        state.noteSetup((wallSeconds() - t0) / kSetupBatch);
    }
}

} // namespace

void
runSimSearch(RunState &state)
{
    state.setPlan(ThreadPlan{});
    timeSetup(state);
    const double seconds = state.options().seconds;

    if (!state.options().traced) {
        // GNMT first, once: its answer is checked, and it warms the
        // process for the timed searches. Every timing is of the
        // ResNet-50 search alone, and a mean: the probes are a fixed
        // set of rates, not samples of one distribution, and their
        // medians jump with the host's slow spells (see README.md).
        Probes warm, probes;
        checkedSearch(state, state.noSpans(), "warmup", kExpected[1], warm);
        std::vector<double> search_s;
        // A fixed count, so every run of one --seconds has the same
        // probes (a time-decided count would change which percentile
        // the probe-time metrics can support).
        const int repetitions =
            std::max(1, static_cast<int>(seconds / kSecondsPerSearch));
        double resnet_qps = 0.0;
        for (int rep = 0; rep < repetitions; ++rep) {
            const Searched done = checkedSearch(state, state.noSpans(),
                                                "search", kExpected[0], probes);
            resnet_qps = done.maxQps;
            search_s.push_back(done.seconds);
        }
        // A mean, with its statistic and support in the metadata like
        // a percentile's.
        auto mean = [&](const char *name, const std::vector<double> &v) {
            state.meta(std::string("tail.") + name,
                       "{\"statistic\": \"mean\", \"n\": " +
                           std::to_string(v.size()) + "}");
            return std::accumulate(v.begin(), v.end(), 0.0) /
                   static_cast<double>(v.size());
        };
        const double total_wall =
            std::accumulate(probes.wallMs.begin(), probes.wallMs.end(), 0.0) /
            1e3;
        state.setEndToEnd("throughput_sps",
                          static_cast<double>(probes.queries) / total_wall);
        state.setEndToEnd("latency_p50_ms",
                          mean("latency_p50_ms", probes.wallMs));
        state.setEndToEnd(
            "latency_p99_ms",
            state.tailMean("latency_p99_ms", probes.wallMs, 0.99).value);
        state.setEndToEnd("ttft_p50_ms",
                          mean("ttft_p50_ms", probes.firstAnswerMs));
        state.setEndToEnd(
            "ttft_p99_ms",
            state.tailMean("ttft_p99_ms", probes.firstAnswerMs, 0.99).value);
        state.meta("tail.tpot_p50_ms",
                   "{\"statistic\": \"pooled\", \"n\": " +
                       std::to_string(probes.perQueryMs.size()) + "}");
        state.setEndToEnd("tpot_p50_ms",
                          probes.afterFirstS * 1e3 /
                              static_cast<double>(probes.afterFirstQueries));
        // Reported, not gated: its spread across seeds is the
        // host's (see README.md).
        state.meta("tpot_p99_ms",
                   jsonNumber(state.tail("tpot_p99_ms", probes.perQueryMs,
                                         0.99)
                                  .value));
        state.setEndToEnd("max_qps", resnet_qps);
        state.setEndToEnd("search_s", mean("search_s", search_s));
        return;
    }

    // Untraced reference: the ResNet-50 search alone, then both traced.
    Probes ref, traced;
    const double ref_s =
        checkedSearch(state, state.noSpans(), "reference", kExpected[0], ref)
            .seconds;
    const double traced_s =
        checkedSearch(state, state.spans(), "traced", kExpected[0], traced)
            .seconds;
    checkedSearch(state, state.spans(), "traced", kExpected[1], traced);

    auto pct = [](const std::vector<double> &v, double p) {
        return supportedPercentile(v, p).value;
    };
    state.setLayer("loadgen.drift_us_p50", pct(traced.driftUs, 0.5));
    state.setLayer("loadgen.drift_us_p99", pct(traced.driftUs, 0.99));
    state.setLayer("loadgen.run_ms", median(traced.wallMs));
    state.setLayer("loadgen.verdict_disagreements",
                   static_cast<double>(traced.disagreements));
    state.setLayer("sim.events", static_cast<double>(traced.events));
    state.setLayer("sim.ns_per_event",
                   traced.ran ? static_cast<double>(traced.callbackNs) /
                                    static_cast<double>(traced.ran)
                              : 0.0);
    state.setLayer("sim.loop_ns_per_event",
                   traced.events ? static_cast<double>(traced.runNs) /
                                       static_cast<double>(traced.events)
                                 : 0.0);
    state.setLayer("harness.probes", static_cast<double>(traced.wallMs.size()));
    state.setLayer("conservation.unanswered",
                   static_cast<double>(traced.unanswered));
    state.setLayer("trace.overhead_frac", traced_s / ref_s - 1.0);
    // Virtual time has no decorator stamps to reconcile: the stages
    // of a simulated query are the model's, not measured.
    state.meta("trace.reconciled_samples", "0");
}

} // namespace perfbench
