/**
 * @file
 * perfbench: one workload per invocation.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-dir DIR] [--source-id ID]
 *
 * Prints a human-readable metadata line ("META {...}") and, last, one
 * JSON result line: the end-to-end metrics (--trace 0) or the
 * per-layer metrics (--trace 1). Exits 1 when an answer was wrong or a
 * check failed, 2 on bad arguments, 3 when the run could not start.
 */

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>

#include "run_state.h"

using namespace perfbench;

namespace {

const std::map<std::string, std::function<void(RunState &)>> &
workloads()
{
    static const std::map<std::string, std::function<void(RunState &)>> w = {
        {"offline_vision", runOfflineVision},
        {"stream_decode", runStreamDecode},
        {"sim_search", runSimSearch},
    };
    return w;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{offline_vision|stream_decode|sim_search} "
                 "--seed N --seconds S --trace 0|1 [--trace-dir DIR] "
                 "[--source-id ID]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end != value.c_str() && *end == '\0';
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' ||
                !(options.seconds > 0.0 && options.seconds <= 3600.0))
                return usage("--seconds must be in (0, 3600]");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace must be 0 or 1");
            options.traced = value == "1";
        } else if (arg == "--trace-dir") {
            options.traceDir = value;
        } else if (arg == "--source-id") {
            options.sourceId = value;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    const auto workload = workloads().find(options.workload);
    if (workload == workloads().end())
        return usage("unknown or missing --workload");
    if (!have_seed)
        return usage("--seed must be a non-negative integer");

    RunState state(options);
    try {
        workload->second(state);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 3;
    }

    if (options.traced) {
        state.setLayer("trace.spans",
                       static_cast<double>(state.spans().size()));
        if (!options.traceDir.empty()) {
            const std::string path = options.traceDir + "/" +
                                     options.workload + "-seed" +
                                     std::to_string(options.seed) +
                                     ".trace.json";
            if (!state.spans().writeChromeTrace(path))
                state.report().fail("cannot write " + path);
            state.meta("trace.file", jsonString(path));
            state.meta("trace.dropped_spans",
                       std::to_string(state.spans().dropped()));
        }
    } else {
        const Report &report = state.report();
        state.setEndToEnd("setup_s", median(state.setups()));
        state.setEndToEnd("peak_rss_mb", peakRssMb());
        state.setEndToEnd(
            "ok_frac",
            report.attempted
                ? static_cast<double>(report.attempted - report.failed) /
                      static_cast<double>(report.attempted)
                : 0.0);
    }
    std::printf("META %s\n", state.metaJson().c_str());
    const std::string result = state.resultJson();
    std::printf("%s\n", result.c_str());
    return state.report().correct ? 0 : 1;
}
