#include "loadgen/trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/rng.h"
#include "common/string_util.h"
#include "loadgen/schedule.h"
#include "loadgen/test_settings.h"

namespace mlperf {
namespace loadgen {

namespace {

constexpr double kPi = 3.14159265358979323846;

double
clampDouble(double v, double lo, double hi)
{
    return std::min(hi, std::max(lo, v));
}

} // namespace

std::string
arrivalPatternName(ArrivalPattern pattern)
{
    switch (pattern) {
      case ArrivalPattern::Poisson:      return "poisson";
      case ArrivalPattern::Bursty:       return "bursty";
      case ArrivalPattern::Diurnal:      return "diurnal";
      case ArrivalPattern::SessionBurst: return "sessions";
      case ArrivalPattern::Recorded:     return "recorded";
    }
    return "?";
}

std::vector<sim::Tick>
generateDiurnalArrivals(uint64_t count, double qps, double amplitude,
                        sim::Tick period_ns, uint64_t seed)
{
    assert(qps > 0.0);
    amplitude = clampDouble(amplitude, 0.0, 0.95);
    const double period_s =
        static_cast<double>(std::max<sim::Tick>(period_ns, sim::kNsPerMs)) /
        static_cast<double>(sim::kNsPerSec);
    const double rate_max = qps * (1.0 + amplitude);

    std::vector<sim::Tick> out;
    out.reserve(count);
    Rng rng(seed);
    double t = 0.0;
    while (out.size() < count) {
        // Candidate stream at the peak rate; thin to the instantaneous
        // rate. Acceptance uses a draw independent of the gap draw so
        // the thinning is exact.
        t += rng.nextExponential(rate_max);
        const double rate =
            qps * (1.0 + amplitude * std::sin(2.0 * kPi * t / period_s));
        if (rng.nextDouble() * rate_max <= rate) {
            out.push_back(static_cast<sim::Tick>(
                t * static_cast<double>(sim::kNsPerSec)));
        }
    }
    return out;
}

std::vector<sim::Tick>
generateSessionArrivals(uint64_t count, double qps,
                        const TraceSpec &spec, uint64_t seed)
{
    assert(qps > 0.0);
    const double mean_size = std::max(1.0, spec.sessionMeanSize);
    const double alpha = std::max(1.1, spec.sessionParetoAlpha);
    const double session_rate = qps / mean_size;
    // Pareto scale chosen so the mean lands on mean_size:
    // E[X] = alpha*xm/(alpha-1).
    const double xm = mean_size * (alpha - 1.0) / alpha;
    const double gap_median_ns = static_cast<double>(
        std::max<sim::Tick>(spec.sessionGapNs, 1));
    const uint64_t size_cap = static_cast<uint64_t>(
        std::max(1.0, 64.0 * mean_size));

    std::vector<double> times_s;
    times_s.reserve(count + count / 4);
    Rng rng(seed);
    double session_start = 0.0;
    while (times_s.size() < count) {
        session_start += rng.nextExponential(session_rate);
        const double u = 1.0 - rng.nextDouble();  // (0, 1]
        const uint64_t size = std::min<uint64_t>(
            size_cap,
            std::max<uint64_t>(
                1, static_cast<uint64_t>(
                       std::llround(xm / std::pow(u, 1.0 / alpha)))));
        double at = session_start;
        times_s.push_back(at);
        for (uint64_t i = 1; i < size; ++i) {
            // Lognormal think time with median gap_median_ns.
            const double gap_ns =
                gap_median_ns *
                std::exp(spec.sessionGapSigma * rng.nextGaussian());
            at += gap_ns / static_cast<double>(sim::kNsPerSec);
            times_s.push_back(at);
        }
    }
    // Long sessions overlap later session starts; the schedule is the
    // merged order.
    std::sort(times_s.begin(), times_s.end());
    times_s.resize(count);

    std::vector<sim::Tick> out;
    out.reserve(count);
    for (double t : times_s) {
        out.push_back(static_cast<sim::Tick>(
            t * static_cast<double>(sim::kNsPerSec)));
    }
    return out;
}

std::vector<sim::Tick>
replayRecordedArrivals(const std::vector<sim::Tick> &recorded,
                       uint64_t count)
{
    if (recorded.empty()) {
        throw std::invalid_argument(
            "recorded arrival trace is empty");
    }
    const size_t n = recorded.size();
    const sim::Tick span = recorded.back();
    // Wrap period: the recording span plus one mean interarrival gap,
    // so back-to-back replays do not stack two arrivals on one tick.
    const sim::Tick gap =
        n > 1 ? std::max<sim::Tick>(1, span / (n - 1)) : sim::kNsPerSec;
    const sim::Tick period = span + gap;

    std::vector<sim::Tick> out;
    out.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        const uint64_t pass = i / n;
        out.push_back(pass * period + recorded[i % n]);
    }
    return out;
}

std::vector<sim::Tick>
parseRecordedTrace(const std::string &text)
{
    std::vector<sim::Tick> out;
    std::istringstream stream(text);
    std::string line;
    uint64_t line_no = 0;
    while (std::getline(stream, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            continue;
        const auto last = line.find_last_not_of(" \t\r");
        const std::string token = line.substr(first, last - first + 1);
        // Strict digit parse instead of std::stoull: a capture with
        // "12x34", "-5", "1e9" or an offset past 2^64 must fail with a
        // line-numbered message, not be half-consumed or wrap.
        uint64_t value = 0;
        if (!parseUint64(token, value)) {
            const bool digits_only =
                token.find_first_not_of("0123456789") == std::string::npos;
            throw std::invalid_argument(
                "trace line " + std::to_string(line_no) +
                (digits_only ? ": offset out of range: "
                             : ": malformed (want a non-negative integer "
                               "ns offset): ") +
                token);
        }
        if (!out.empty() && value < out.back()) {
            // A recording is a timeline; silently re-sorting one with
            // interleaved or clock-skewed offsets would fabricate a
            // different workload than was captured.
            throw std::invalid_argument(
                "trace line " + std::to_string(line_no) +
                ": offsets must be non-decreasing (" + token +
                " after " + std::to_string(out.back()) + ")");
        }
        out.push_back(static_cast<sim::Tick>(value));
    }
    return out;
}

std::vector<sim::Tick>
generateTraceArrivals(const TraceSpec &spec, uint64_t count, double qps,
                      uint64_t seed)
{
    switch (spec.pattern) {
      case ArrivalPattern::Poisson:
        return generatePoissonArrivals(count, qps, seed);
      case ArrivalPattern::Bursty:
        return generateBurstyArrivals(
            count, qps, clampDouble(spec.burstFactor, 1.01, 3.99),
            seed);
      case ArrivalPattern::Diurnal:
        return generateDiurnalArrivals(count, qps,
                                       spec.diurnalAmplitude,
                                       spec.diurnalPeriodNs, seed);
      case ArrivalPattern::SessionBurst:
        return generateSessionArrivals(count, qps, spec, seed);
      case ArrivalPattern::Recorded:
        return replayRecordedArrivals(spec.recorded, count);
    }
    return generatePoissonArrivals(count, qps, seed);
}

std::vector<sim::Tick>
generateServerArrivals(const TestSettings &settings, uint64_t count,
                       uint64_t seed)
{
    TraceSpec spec = settings.serverTrace;
    if (settings.serverBurstFactor > 1.0) {
        // Legacy knob: burst factor alone turns a Poisson schedule
        // into the MMPP, and always parameterizes an explicit Bursty
        // pattern.
        if (spec.pattern == ArrivalPattern::Poisson)
            spec.pattern = ArrivalPattern::Bursty;
        spec.burstFactor = settings.serverBurstFactor;
    }
    return generateTraceArrivals(spec, count, settings.serverTargetQps,
                                 seed);
}

} // namespace loadgen
} // namespace mlperf
