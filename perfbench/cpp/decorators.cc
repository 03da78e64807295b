#include "decorators.h"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "bench_util.h"

namespace perfbench {

namespace {

/** Small per-thread id for trace rows. */
uint32_t
threadId()
{
    static std::atomic<uint32_t> next{1};
    thread_local const uint32_t id = next.fetch_add(1);
    return id;
}

const auto kProcessStart = std::chrono::steady_clock::now();

} // namespace

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - kProcessStart)
        .count();
}

int
processThreads()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return std::atoi(line.c_str() + 8);
    }
    return 0;
}

// ------------------------------------------------------------ SpanLog

int64_t
SpanLog::add(const char *name, Tick start, Tick end, int64_t sample,
             int64_t parent)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    if (spans_.size() >= cap_) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return -1;
    }
    spans_.push_back(
        {name, start + epoch_, end + epoch_, parent, sample, threadId()});
    return static_cast<int64_t>(spans_.size()) - 1;
}

size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fprintf(out, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(out,
                     "%s\n{\"name\": %s, \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %lld, "
                     "\"sample\": %lld}}",
                     i == 0 ? "" : ",", jsonString(s.name).c_str(),
                     s.tid, static_cast<double>(s.start) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3, i,
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.sample));
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
}

// ---------------------------------------------------------- RunLedger

RunLedger::RunLedger(size_t capacity, Oracle oracle)
    : oracle_(std::move(oracle)), records_(capacity)
{
    issueOrder_.reserve(capacity);
}

void
RunLedger::noteIssued(const loadgen::QuerySample &sample, Tick now)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++counts_.issued;
    if (SampleRecord *rec = record(sample.id)) {
        rec->index = sample.index;
        rec->issued = now;
        issueOrder_.push_back(sample.id);
    }
}

void
RunLedger::noteComplete(
    const std::vector<loadgen::QuerySampleResponse> &responses, Tick now)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (counts_.answered == 0)
        firstAnswerWall_ = wallSeconds();
    for (const auto &r : responses) {
        ++counts_.answered;
        switch (r.status) {
          case loadgen::ResponseStatus::Ok: ++counts_.ok; break;
          case loadgen::ResponseStatus::Degraded: ++counts_.degraded; break;
          case loadgen::ResponseStatus::Shed: ++counts_.shed; break;
          case loadgen::ResponseStatus::Timeout: ++counts_.timeout; break;
          case loadgen::ResponseStatus::Failed:
            ++counts_.failedStatus;
            break;
        }
        SampleRecord *rec = record(r.id);
        if (rec == nullptr) {
            if (!records_.empty())
                ++counts_.untracked;
            continue;
        }
        if (rec->answered) {
            ++counts_.duplicate;
            continue;
        }
        rec->answered = true;
        rec->done = now;
        rec->tokens = r.tokenCount;
        if (!loadgen::responseIsError(r.status)) {
            rec->correct = oracle_ ? oracle_(rec->index, r.data) : true;
            if (!rec->correct)
                ++counts_.wrong;
        }
    }
}

void
RunLedger::noteFirstToken(loadgen::ResponseId id, Tick now)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (SampleRecord *rec = record(id); rec && rec->firstToken == 0)
        rec->firstToken = now;
}

SampleRecord *
RunLedger::record(loadgen::ResponseId id)
{
    return id < records_.size() ? &records_[id] : nullptr;
}

AnswerCounts
RunLedger::counts() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counts_;
}

// ------------------------------------------------ TimedSut / Delegate

void
TimedDelegate::querySamplesComplete(
    const std::vector<loadgen::QuerySampleResponse> &responses)
{
    const Tick t = clock_.now();
    ledger_.noteComplete(responses, t);
    inner_->querySamplesComplete(responses);
    if (spans_.enabled()) {
        const int64_t sample = responses.size() == 1
                                   ? static_cast<int64_t>(responses[0].id)
                                   : -1;
        spans_.add("loadgen.complete", t, clock_.now(), sample);
    }
}

void
TimedDelegate::querySampleFirstToken(loadgen::ResponseId id)
{
    ledger_.noteFirstToken(id, clock_.now());
    inner_->querySampleFirstToken(id);
}

void
TimedSut::issueQuery(const std::vector<loadgen::QuerySample> &samples,
                     loadgen::ResponseDelegate &delegate)
{
    if (!delegate_.bound())
        delegate_.bind(&delegate);
    const Tick t = clock_.now();
    for (const auto &sample : samples)
        ledger_.noteIssued(sample, t);
    inner_.issueQuery(samples, delegate_);
    if (spans_.enabled()) {
        const int64_t sample =
            samples.size() == 1 ? static_cast<int64_t>(samples[0].id) : -1;
        spans_.add("sut.issueQuery", t, clock_.now(), sample);
    }
}

void
TimedSut::flushQueries()
{
    observedThreads_ = std::max(observedThreads_, processThreads());
    inner_.flushQueries();
}

// ------------------------------------------------------ TimedInference

std::vector<loadgen::QuerySampleResponse>
TimedInference::runBatch(const std::vector<loadgen::QuerySample> &samples)
{
    const Tick start = clock_.now();
    auto responses = inner_.runBatch(samples);
    const Tick end = clock_.now();
    if (ledger_ != nullptr) {
        for (const auto &sample : samples) {
            if (SampleRecord *rec = ledger_->record(sample.id)) {
                rec->computeStart = start;
                rec->computeEnd = end;
            }
        }
    }
    spans_.add("sut.runBatch", start, end,
               samples.size() == 1 ? static_cast<int64_t>(samples[0].id)
                                   : -1);
    std::lock_guard<std::mutex> lock(mutex_);
    batches_.push_back({static_cast<uint32_t>(samples.size()), end - start});
    return responses;
}

std::vector<BatchRecord>
TimedInference::takeBatches()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<BatchRecord> out;
    out.swap(batches_);
    return out;
}

// -------------------------------------------------------- TimedDecoder

TimedDecoder::TimedDecoder(serving::SequenceDecoder &inner,
                           sim::Executor &clock, SpanLog &spans)
    : inner_(inner), clock_(clock), spans_(spans),
      slotPrefill_(inner.slotCount(), -1),
      slotStepped_(inner.slotCount(), false)
{
}

void
TimedDecoder::prefill(size_t slot, loadgen::QuerySampleIndex index)
{
    const Tick start = clock_.now();
    inner_.prefill(slot, index);
    const Tick end = clock_.now();
    slotPrefill_[slot] = static_cast<int64_t>(prefills_.size());
    slotStepped_[slot] = false;
    prefills_.push_back({index, start, end, 0});
    spans_.add("sut.prefill", start, end);
}

serving::StepOutcome
TimedDecoder::step(size_t slot)
{
    const Tick start = clock_.now();
    const serving::StepOutcome out = inner_.step(slot);
    const Tick end = clock_.now();
    stepNs_.push_back(end - start);
    if (!slotStepped_[slot] && slotPrefill_[slot] >= 0) {
        prefills_[static_cast<size_t>(slotPrefill_[slot])].firstStepEnd =
            end;
        slotStepped_[slot] = true;
    }
    if (stepNs_.size() <= kStepSpans)
        spans_.add("sut.step", start, end);
    return out;
}

void
TimedDecoder::padStep(size_t slot)
{
    const Tick start = clock_.now();
    inner_.padStep(slot);
    if (stepNs_.size() <= kStepSpans)
        spans_.add("sut.padStep", start, clock_.now());
}

void
TimedDecoder::release(size_t slot)
{
    inner_.release(slot);
    slotPrefill_[slot] = -1;
}

// ---------------------------------------------------- CountingExecutor

void
CountingExecutor::schedule(Tick when, Task task)
{
    scheduled_.fetch_add(1, std::memory_order_relaxed);
    if (!timeTasks_) {
        inner_.schedule(when, std::move(task));
        return;
    }
    inner_.schedule(when, [this, task = std::move(task)] {
        const auto start = std::chrono::steady_clock::now();
        task();
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        callbackNs_.fetch_add(static_cast<uint64_t>(ns),
                              std::memory_order_relaxed);
        ran_.fetch_add(1, std::memory_order_relaxed);
    });
}

void
CountingExecutor::run()
{
    const auto start = std::chrono::steady_clock::now();
    inner_.run();
    runNs_.fetch_add(static_cast<uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count()),
                     std::memory_order_relaxed);
}

} // namespace perfbench
