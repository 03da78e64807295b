/**
 * @file
 * State shared by the workloads of one benchmark run: options, the
 * metric catalogs, request accounting per phase, run metadata and the
 * trace. Workloads fill it; main() prints it.
 */

#ifndef PERFBENCH_RUN_STATE_H
#define PERFBENCH_RUN_STATE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "decorators.h"

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    std::string traceDir;   //!< where the Chrome trace goes
    std::string sourceId;   //!< commit or source digest of the build
};

/** Name and unit of one metric the benchmark can print. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics, in output order (see BENCHMARK.json). */
const std::vector<MetricSpec> &endToEndMetrics();
/** The per-layer metrics, in output order. */
const std::vector<MetricSpec> &perLayerMetrics();

/** Threads a workload may start, by role. */
struct ThreadPlan
{
    int intraOp = 1;      //!< ThreadPool::setGlobalThreads
    int workers = 0;      //!< serving worker threads
    int drainers = 0;     //!< sharded completion drainer
    int decode = 0;       //!< continuous-batcher decode thread
    /** Including the main (executor) thread. */
    int
    total() const
    {
        return 1 + (intraOp - 1) + workers + drainers + decode;
    }
};

/** Requests sent, answered correctly and failed in one phase. */
struct PhaseCount
{
    std::string name;
    uint64_t sent = 0;
    uint64_t succeeded = 0;
    uint64_t failed = 0;
    double wallS = 0.0;  //!< wall time of the phase's LoadGen runs
};

class RunState
{
  public:
    explicit RunState(Options options);

    const Options &options() const { return options_; }
    Report &report() { return report_; }
    /** Spans of traced phases (disabled log when not tracing). */
    SpanLog &spans() { return options_.traced ? traced_ : untraced_; }
    /** A log that never records (untraced reference phases). */
    SpanLog &noSpans() { return untraced_; }

    /**
     * Fold one LoadGen run's answers and wall time into @p phase and
     * the run totals; wrong answers make the run incorrect.
     */
    void account(const std::string &phase, const AnswerCounts &counts,
                 double wall_s);

    void setEndToEnd(const std::string &name, double value);
    void setLayer(const std::string &name, double value);
    double layer(const std::string &name) const;

    /**
     * Percentile with support for metric @p name: recorded in the
     * metadata, and a run failure when no percentile has support.
     */
    Tail tail(const std::string &name, const std::vector<double> &values,
              double p);
    /** As tail(), reporting supportedTailMean instead. */
    Tail tailMean(const std::string &name, const std::vector<double> &values,
                  double p);

    /** Add a metadata entry; @p json_value is already JSON. */
    void meta(const std::string &key, const std::string &json_value);

    /** Adopt @p plan; throws when it needs more threads than CPUs. */
    void setPlan(const ThreadPlan &plan);
    void noteThreads(int observed);

    /** Median of repeated set-ups of the system, seconds. */
    void noteSetup(double seconds) { setups_.push_back(seconds); }
    const std::vector<double> &setups() const { return setups_; }

    /** Metadata line (JSON object). */
    std::string metaJson() const;
    /** Final result line for the end-to-end or per-layer metrics. */
    std::string resultJson();

  private:
    Tail noteTail(const std::string &name, double p, const Tail &t,
                  const char *statistic);

    Options options_;
    Report report_;
    SpanLog untraced_{false};
    SpanLog traced_{true};
    std::map<std::string, double> endToEnd_;
    std::map<std::string, double> layers_;
    std::vector<PhaseCount> phases_;
    std::vector<std::pair<std::string, std::string>> meta_;
    std::vector<double> setups_;
    ThreadPlan plan_;
    int observedThreads_ = 0;
};

/** Median of @p values, the mean of the middle two when even (0 when
 *  empty). */
double median(std::vector<double> values);

/** Peak resident set of this process, MB. */
double peakRssMb();

/** Usable CPUs of this process. */
int availableCpus();

/** Workload entry points (vision.cc, stream.cc, sim_search.cc). */
void runOfflineVision(RunState &state);
void runStreamDecode(RunState &state);
void runSimSearch(RunState &state);

} // namespace perfbench

#endif // PERFBENCH_RUN_STATE_H
