#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

namespace perfbench {

namespace {

/** 0-based nearest-rank index of percentile @p p among @p n values. */
size_t
rankIndex(size_t n, double p)
{
    const double rank = std::ceil(p * static_cast<double>(n));
    if (rank <= 1.0)
        return 0;
    return std::min(n, static_cast<size_t>(rank)) - 1;
}

} // namespace

Tail
supportedPercentile(std::vector<double> values, double p,
                    size_t min_beyond)
{
    Tail tail;
    tail.n = values.size();
    if (values.size() <= min_beyond)
        return tail;
    size_t index = rankIndex(values.size(), p);
    const size_t last_supported = values.size() - 1 - min_beyond;
    index = std::min(index, last_supported);
    std::nth_element(values.begin(),
                     values.begin() + static_cast<int64_t>(index),
                     values.end());
    tail.value = values[index];
    tail.percentile = static_cast<double>(index + 1) /
                      static_cast<double>(values.size());
    tail.percentile = std::min(tail.percentile, p);
    tail.beyond = values.size() - 1 - index;
    tail.supported = true;
    return tail;
}

Tail
supportedTailMean(std::vector<double> values, double p, size_t min_beyond)
{
    Tail tail = supportedPercentile(values, p, min_beyond);
    if (!tail.supported)
        return tail;
    std::sort(values.begin(), values.end(), std::greater<double>());
    double sum = 0.0;
    for (size_t i = 0; i <= tail.beyond; ++i)
        sum += values[i];
    tail.value = sum / static_cast<double>(tail.beyond + 1);
    return tail;
}

double
nearestRank(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    const size_t index = rankIndex(values.size(), p);
    std::nth_element(values.begin(),
                     values.begin() + static_cast<int64_t>(index),
                     values.end());
    return values[index];
}

double
gflopsPerSecond(uint64_t flops_per_sample, int64_t batch, double seconds)
{
    if (seconds <= 0.0)
        return 0.0;
    return static_cast<double>(flops_per_sample) *
           static_cast<double>(batch) / seconds / 1e9;
}

StageSplit
splitStages(const std::vector<Tick> &stamps, Tick end)
{
    StageSplit split;
    if (stamps.empty())
        return split;
    int64_t sum = 0;
    for (size_t i = 1; i < stamps.size(); ++i) {
        const int64_t stage = static_cast<int64_t>(stamps[i]) -
                              static_cast<int64_t>(stamps[i - 1]);
        if (stage < 0)
            split.ordered = false;
        split.stages.push_back(stage);
        sum += stage;
    }
    split.latency = static_cast<int64_t>(end) -
                    static_cast<int64_t>(stamps.front());
    split.residual = split.latency - sum;
    return split;
}

uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

mlperf::loadgen::TestSettings
openLoopSettings(mlperf::loadgen::Scenario scenario, double qps,
                 uint64_t count, uint64_t seed, uint64_t phase)
{
    auto settings = mlperf::loadgen::TestSettings::forScenario(scenario);
    settings.serverTargetQps = qps;
    settings.minQueryCount = count;
    settings.maxQueryCount = count;
    settings.minDurationNs = 0;
    settings.scheduleSeed = deriveSeed(seed, 2 * phase);
    settings.sampleIndexSeed = deriveSeed(seed, 2 * phase + 1);
    settings.recordTimeline = true;
    return settings;
}

void
Report::add(const std::string &name, double value,
            const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
Report::fail(const std::string &why)
{
    correct = false;
    errors.push_back(why);
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += jsonString(metrics[i].name) + ": {\"value\": " +
               jsonNumber(metrics[i].value) +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    out += "}}";
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace perfbench
