#include "run_state.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace perfbench {

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"ok_frac", "fraction"},
        {"throughput_sps", "samples/s"},
        {"latency_p50_ms", "ms"},
        {"latency_p99_ms", "ms"},
        {"max_qps", "queries/s"},
        {"ttft_p50_ms", "ms"},
        {"ttft_p99_ms", "ms"},
        {"tpot_p50_ms", "ms"},
        {"search_s", "s"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"loadgen.drift_us_p50", "us"},
        {"loadgen.drift_us_p99", "us"},
        {"loadgen.corrected_tail_ratio", "ratio"},
        {"loadgen.run_ms", "ms"},
        {"loadgen.verdict_disagreements", "count"},
        {"sim.events", "count"},
        {"sim.ns_per_event", "ns"},
        {"sim.loop_ns_per_event", "ns"},
        {"harness.probes", "count"},
        {"serving.wait_us_p50", "us"},
        {"serving.wait_us_p99", "us"},
        {"serving.deliver_us_p50", "us"},
        {"serving.deliver_us_p99", "us"},
        {"serving.batch_size_mean", "samples"},
        {"serving.timeout_flush_frac", "fraction"},
        {"serving.utilization", "fraction"},
        {"serving.shed", "count"},
        {"serving.steals", "count"},
        {"serving.ring_fallbacks", "count"},
        {"serving.fast_path_locks", "count"},
        {"serving.cb_admit_us_p50", "us"},
        {"serving.cb_admit_us_p99", "us"},
        {"serving.cb_slot_util", "fraction"},
        {"serving.cb_rounds", "count"},
        {"serving.cb_pad_steps", "count"},
        {"sut.batch_us_p50_b1", "us"},
        {"sut.batch_us_p50_full", "us"},
        {"sut.us_per_sample", "us"},
        {"sut.busy_frac", "fraction"},
        {"sut.prefill_us_p50", "us"},
        {"sut.step_us_p50", "us"},
        {"sut.step_us_p99", "us"},
        {"nn.forward_b1_us", "us"},
        {"nn.forward_b8_us", "us"},
        {"nn.gflops_b1", "GFLOP/s"},
        {"nn.gflops_b8", "GFLOP/s"},
        {"data.build_s", "s"},
        {"models.build_s", "s"},
        {"sut.qsl_load_s", "s"},
        {"trace.residual_us_max", "us"},
        {"trace.residual_us_p99", "us"},
        {"trace.overhead_frac", "fraction"},
        {"trace.spans", "count"},
        {"conservation.unanswered", "count"},
        {"conservation.stats_gap", "count"},
        {"conservation.util_over_1", "fraction"},
    };
    return specs;
}

namespace {

bool
known(const std::vector<MetricSpec> &specs, const std::string &name)
{
    return std::any_of(specs.begin(), specs.end(),
                       [&](const MetricSpec &s) { return name == s.name; });
}

} // namespace

RunState::RunState(Options options) : options_(std::move(options)) {}

void
RunState::account(const std::string &phase, const AnswerCounts &counts,
                  double wall_s)
{
    auto it = std::find_if(
        phases_.begin(), phases_.end(),
        [&](const PhaseCount &p) { return p.name == phase; });
    if (it == phases_.end()) {
        phases_.push_back({phase, 0, 0, 0, 0.0});
        it = phases_.end() - 1;
    }
    const uint64_t failures = counts.failures();
    it->sent += counts.issued;
    it->wallS += wall_s;
    it->failed += failures;
    it->succeeded += counts.issued > failures ? counts.issued - failures : 0;
    report_.attempted += counts.issued;
    report_.failed += failures;
    if (counts.wrong > 0) {
        report_.fail(phase + ": " + std::to_string(counts.wrong) +
                     " wrong answers");
    }
    if (counts.duplicate + counts.untracked > 0) {
        report_.fail(phase + ": " +
                     std::to_string(counts.duplicate + counts.untracked) +
                     " duplicate or unknown completions");
    }
}

void
RunState::setEndToEnd(const std::string &name, double value)
{
    if (!known(endToEndMetrics(), name))
        throw std::logic_error("unknown end-to-end metric " + name);
    endToEnd_[name] = value;
}

void
RunState::setLayer(const std::string &name, double value)
{
    if (!known(perLayerMetrics(), name))
        throw std::logic_error("unknown per-layer metric " + name);
    layers_[name] = value;
}

double
RunState::layer(const std::string &name) const
{
    const auto it = layers_.find(name);
    return it == layers_.end() ? 0.0 : it->second;
}

Tail
RunState::tail(const std::string &name, const std::vector<double> &values,
               double p)
{
    return noteTail(name, p, supportedPercentile(values, p),
                    "percentile");
}

Tail
RunState::tailMean(const std::string &name,
                   const std::vector<double> &values, double p)
{
    return noteTail(name, p, supportedTailMean(values, p),
                    "tail_mean");
}

Tail
RunState::noteTail(const std::string &name, double p,
                   const Tail &t, const char *statistic)
{
    meta("tail." + name,
         "{\"requested\": " + jsonNumber(p) + ", \"reported\": " +
             jsonNumber(t.percentile) + ", \"n\": " + std::to_string(t.n) +
             ", \"beyond\": " + std::to_string(t.beyond) +
             ", \"statistic\": " + jsonString(statistic) + "}");
    if (!t.supported)
        report_.fail(name + ": " + std::to_string(t.n) +
                     " samples support no percentile");
    return t;
}

void
RunState::meta(const std::string &key, const std::string &json_value)
{
    for (auto &entry : meta_) {
        if (entry.first == key) {
            entry.second = json_value;
            return;
        }
    }
    meta_.emplace_back(key, json_value);
}

void
RunState::setPlan(const ThreadPlan &plan)
{
    if (plan.total() > availableCpus()) {
        throw std::runtime_error(
            "thread plan needs " + std::to_string(plan.total()) +
            " threads but only " + std::to_string(availableCpus()) +
            " CPUs are available");
    }
    plan_ = plan;
}

void
RunState::noteThreads(int observed)
{
    observedThreads_ = std::max(observedThreads_, observed);
}

std::string
RunState::metaJson() const
{
    std::string out = "{\"workload\": " + jsonString(options_.workload) +
                      ", \"seed\": " + std::to_string(options_.seed) +
                      ", \"seconds\": " + jsonNumber(options_.seconds) +
                      ", \"trace\": " + (options_.traced ? "1" : "0") +
                      ", \"source\": " + jsonString(options_.sourceId) +
#ifdef PERFBENCH_BUILD_TYPE
                      ", \"build_type\": " +
                      jsonString(PERFBENCH_BUILD_TYPE) +
#endif
                      ", \"nproc\": " + std::to_string(availableCpus()) +
                      ", \"threads\": {\"intra_op\": " +
                      std::to_string(plan_.intraOp) +
                      ", \"workers\": " + std::to_string(plan_.workers) +
                      ", \"drainers\": " + std::to_string(plan_.drainers) +
                      ", \"decode\": " + std::to_string(plan_.decode) +
                      ", \"planned_total\": " +
                      std::to_string(plan_.total()) +
                      ", \"observed_max\": " +
                      std::to_string(observedThreads_) + "}";
    out += ", \"phases\": [";
    for (size_t i = 0; i < phases_.size(); ++i) {
        const PhaseCount &p = phases_[i];
        out += std::string(i ? ", " : "") + "{\"name\": " +
               jsonString(p.name) + ", \"sent\": " + std::to_string(p.sent) +
               ", \"succeeded\": " + std::to_string(p.succeeded) +
               ", \"failed\": " + std::to_string(p.failed) +
               ", \"wall_s\": " + jsonNumber(p.wallS) + "}";
    }
    out += "], \"setup_s_samples\": [";
    for (size_t i = 0; i < setups_.size(); ++i)
        out += std::string(i ? ", " : "") + jsonNumber(setups_[i]);
    out += "]";
    for (const auto &entry : meta_)
        out += ", " + jsonString(entry.first) + ": " + entry.second;
    out += ", \"errors\": [";
    for (size_t i = 0; i < report_.errors.size(); ++i)
        out += std::string(i ? ", " : "") + jsonString(report_.errors[i]);
    return out + "]}";
}

std::string
RunState::resultJson()
{
    report_.metrics.clear();
    if (options_.traced) {
        for (const MetricSpec &spec : perLayerMetrics())
            report_.add(spec.name, layer(spec.name), spec.unit);
    } else {
        for (const MetricSpec &spec : endToEndMetrics()) {
            const auto it = endToEnd_.find(spec.name);
            if (it == endToEnd_.end()) {
                report_.fail(std::string("metric not measured: ") +
                             spec.name);
                report_.add(spec.name, 0.0, spec.unit);
            } else {
                report_.add(spec.name, it->second, spec.unit);
            }
        }
    }
    return report_.json();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return CPU_COUNT(&set);
    return static_cast<int>(std::thread::hardware_concurrency());
}

} // namespace perfbench
