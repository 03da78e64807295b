/**
 * @file
 * Randomized malformed-input tests for the two text parsers a user
 * feeds the LoadGen: TestSettings::applyConfig (user.conf) and
 * parseRecordedTrace (recorded arrival captures). Seeded mutations of
 * valid inputs (truncation, signs, exponents, garbage bytes, overflow,
 * reordered and dropped lines) must either parse into a usable result
 * or throw std::invalid_argument naming a line. Nothing else: no other
 * exception type, no crash, and never a trace that runs backwards.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "loadgen/test_settings.h"
#include "loadgen/trace.h"

namespace mlperf {
namespace loadgen {
namespace {

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out = split(text, '\n');
    if (!out.empty() && out.back().empty())
        out.pop_back();
    return out;
}

std::string
unlines(const std::vector<std::string> &parts)
{
    return join(parts, "\n") + "\n";
}

/** Position of a random digit in @p text, or npos if it has none. */
size_t
randomDigit(const std::string &text, Rng &rng)
{
    std::vector<size_t> digits;
    for (size_t i = 0; i < text.size(); ++i) {
        if (text[i] >= '0' && text[i] <= '9')
            digits.push_back(i);
    }
    return digits.empty() ? std::string::npos
                          : digits[rng.nextBelow(digits.size())];
}

/** One seeded mutation of a valid input text. */
std::string
mutate(const std::string &text, Rng &rng)
{
    static const char kGarbage[] = {'\0', '\x7f', '\xff', '\x80', '=',
                                    '#',  ' ',    '\t',   '\n',   '\r',
                                    'x',  '.',    ',',    '-',    '+',
                                    'e',  'E',    'n',    'i',    '0'};
    static const char *const kHuge[] = {
        "18446744073709551616", "99999999999999999999999999",
        "1e400",                "-1e400",
        "nan",                  "inf",
        "-0",                   "0x10",
        "1e-400",               "4294967296e9"};
    std::string out = text;
    switch (rng.nextBelow(8)) {
      case 0: {  // truncate anywhere, even mid-number
        out.resize(rng.nextBelow(out.size() + 1));
        break;
      }
      case 1: {  // sign in front of a digit
        const size_t at = randomDigit(out, rng);
        if (at != std::string::npos)
            out.insert(at, rng.nextBelow(2) ? "-" : "+");
        break;
      }
      case 2: {  // exponent after a digit
        static const char *const kExp[] = {"e9", "e-9", "e999", "E+2"};
        const size_t at = randomDigit(out, rng);
        if (at != std::string::npos)
            out.insert(at + 1, kExp[rng.nextBelow(4)]);
        break;
      }
      case 3: {  // garbage bytes
        const uint64_t n = 1 + rng.nextBelow(3);
        for (uint64_t i = 0; i < n && !out.empty(); ++i)
            out[rng.nextBelow(out.size())] =
                kGarbage[rng.nextBelow(sizeof(kGarbage))];
        break;
      }
      case 4: {  // overflow / non-finite: replace one number
        const size_t at = randomDigit(out, rng);
        if (at == std::string::npos)
            break;
        size_t begin = at, end = at;
        while (begin > 0 && out[begin - 1] >= '0' && out[begin - 1] <= '9')
            --begin;
        while (end < out.size() && ((out[end] >= '0' && out[end] <= '9') ||
                                    out[end] == '.'))
            ++end;
        out.replace(begin, end - begin, kHuge[rng.nextBelow(10)]);
        break;
      }
      case 5: {  // swap two lines
        auto parts = lines(out);
        if (parts.size() >= 2) {
            std::swap(parts[rng.nextBelow(parts.size())],
                      parts[rng.nextBelow(parts.size())]);
        }
        out = unlines(parts);
        break;
      }
      case 6: {  // drop or duplicate a line
        auto parts = lines(out);
        if (!parts.empty()) {
            const size_t i = rng.nextBelow(parts.size());
            if (rng.nextBelow(2))
                parts.erase(parts.begin() + static_cast<int64_t>(i));
            else
                parts.insert(parts.begin() + static_cast<int64_t>(i),
                             parts[i]);
        }
        out = unlines(parts);
        break;
      }
      case 7: {  // delete a span of bytes
        if (!out.empty()) {
            const size_t at = rng.nextBelow(out.size());
            out.erase(at, 1 + rng.nextBelow(4));
        }
        break;
      }
    }
    return out;
}

/** True when @p what names a line ("... line <n>: ..."). */
bool
namesLine(const std::string &what, const char *prefix)
{
    return std::regex_search(
        what, std::regex(std::string(prefix) + " line [0-9]+: "));
}

constexpr int kMutants = 3000;

// -------------------------------------------------- recorded traces

const char *const kValidTrace = "# capture of 12 arrivals\n"
                                "0\n"
                                "1500\n"
                                "1500   # two at once\n"
                                "\n"
                                "  2750\n"
                                "40000\n"
                                "40001\n"
                                "987654321\n"
                                "987654321\n"
                                "1000000000\n"
                                "18446744073709551000\n"
                                "18446744073709551615\n";

TEST(MalformedInput, MutatedTracesParseForwardOrThrowWithLineNumber)
{
    ASSERT_EQ(parseRecordedTrace(kValidTrace).size(), 11u);
    Rng rng(13);
    int parsed = 0, rejected = 0;
    for (int i = 0; i < kMutants; ++i) {
        std::string text = kValidTrace;
        const uint64_t rounds = 1 + rng.nextBelow(3);
        for (uint64_t r = 0; r < rounds; ++r)
            text = mutate(text, rng);
        try {
            const auto ticks = parseRecordedTrace(text);
            ++parsed;
            for (size_t k = 1; k < ticks.size(); ++k) {
                ASSERT_GE(ticks[k], ticks[k - 1])
                    << "accepted a backwards trace:\n" << text;
            }
        } catch (const std::invalid_argument &e) {
            ++rejected;
            ASSERT_TRUE(namesLine(e.what(), "trace"))
                << "no line number: " << e.what();
        } catch (...) {
            FAIL() << "unexpected exception type for:\n" << text;
        }
    }
    // Both outcomes occur, so the mutations are neither all fatal nor
    // all harmless.
    EXPECT_GT(parsed, kMutants / 10);
    EXPECT_GT(rejected, kMutants / 10);
}

TEST(MalformedInput, SwappedTraceLinesAreRejectedAtTheSecond)
{
    const auto parts = lines(kValidTrace);
    for (size_t a = 0; a < parts.size(); ++a) {
        for (size_t b = a + 1; b < parts.size(); ++b) {
            auto swapped = parts;
            std::swap(swapped[a], swapped[b]);
            try {
                const auto ticks = parseRecordedTrace(unlines(swapped));
                for (size_t k = 1; k < ticks.size(); ++k)
                    ASSERT_GE(ticks[k], ticks[k - 1]);
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find("non-decreasing"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

// ---------------------------------------------------------- configs

std::string
validConfig(const std::string &trace_path)
{
    return "# user.conf\n"
           "scenario = Server\n"
           "mode = PerformanceOnly\n"
           "server_target_qps = 1234.5\n"
           "server_burst_factor = 1.5\n"
           "arrival_pattern = sessions\n"
           "diurnal_amplitude = 0.5\n"
           "diurnal_period_s = 30\n"
           "session_mean_size = 8\n"
           "session_pareto_alpha = 1.5\n"
           "session_gap_ms = 2\n"
           "session_gap_sigma = 1\n"
           "samples_per_query = 8\n"
           "multistream_arrival_ms = 50\n"
           "target_latency_ms = 15\n"
           "ttft_target_ms = 200\n"
           "tpot_target_ms = 40\n"
           "server_query_deadline_ms = 1000\n"
           "tail_percentile = 0.99\n"
           "max_over_latency_fraction = 0.01\n"
           "min_query_count = 270336\n"
           "min_duration_ms = 60000   # one minute\n"
           "offline_sample_count = 24576\n"
           "max_query_count = 0\n"
           "sample_index_seed = 1234567890123\n"
           "schedule_seed = 42\n"
           "sample_index_mode = random\n"
           "accuracy_log_fraction = 0.001\n"
           "record_timeline = false\n"
           "trace_file = " + trace_path + "\n";
}

/** The invariants a successfully parsed configuration must hold. */
void
expectUsable(const TestSettings &s, const std::string &text)
{
    EXPECT_GT(s.serverTargetQps, 0.0) << text;
    EXPECT_GT(s.tailPercentile, 0.0) << text;
    EXPECT_LE(s.tailPercentile, 1.0) << text;
    EXPECT_GE(s.maxOverLatencyFraction, 0.0) << text;
    EXPECT_LE(s.maxOverLatencyFraction, 1.0) << text;
    EXPECT_GE(s.accuracyLogFraction, 0.0) << text;
    EXPECT_LE(s.accuracyLogFraction, 1.0) << text;
    EXPECT_GE(s.multiStreamSamplesPerQuery, 1u) << text;
    EXPECT_GE(s.offlineSampleCount, 1u) << text;
    EXPECT_GT(s.multiStreamArrivalNs, 0u) << text;
    EXPECT_GT(s.serverTrace.diurnalPeriodNs, 0u) << text;
    for (size_t k = 1; k < s.serverTrace.recorded.size(); ++k)
        ASSERT_GE(s.serverTrace.recorded[k], s.serverTrace.recorded[k - 1]);
}

TEST(MalformedInput, MutatedConfigsParseOrThrowWithLineNumber)
{
    const std::string trace_path =
        ::testing::TempDir() + "malformed_input_trace.txt";
    {
        std::ofstream file(trace_path);
        file << kValidTrace;
    }
    const std::string valid = validConfig(trace_path);
    {
        TestSettings s;
        s.applyConfig(valid);
        expectUsable(s, valid);
        EXPECT_EQ(s.serverTrace.pattern, ArrivalPattern::Recorded);
    }
    Rng rng(7);
    int parsed = 0, rejected = 0;
    for (int i = 0; i < kMutants; ++i) {
        std::string text = valid;
        const uint64_t rounds = 1 + rng.nextBelow(3);
        for (uint64_t r = 0; r < rounds; ++r)
            text = mutate(text, rng);
        TestSettings s;
        try {
            s.applyConfig(text);
            ++parsed;
            expectUsable(s, text);
        } catch (const std::invalid_argument &e) {
            ++rejected;
            ASSERT_TRUE(namesLine(e.what(), "config"))
                << "no line number: " << e.what();
        } catch (...) {
            FAIL() << "unexpected exception type for:\n" << text;
        }
    }
    EXPECT_GT(parsed, kMutants / 10);
    EXPECT_GT(rejected, kMutants / 10);
    std::remove(trace_path.c_str());
}

TEST(MalformedInput, ConfigValuesAreStrict)
{
    // Each of these used to parse (std::stoull/std::stod accept
    // trailing junk and signs, and cast NaN or negative durations),
    // or escaped as std::out_of_range.
    for (const char *bad : {
             "min_query_count = 12x",
             "min_query_count = -5",
             "min_query_count = 18446744073709551616",
             "min_query_count = 1e3",
             "schedule_seed = +7",
             "target_latency_ms = -1",
             "target_latency_ms = nan",
             "target_latency_ms = 1e400",
             "min_duration_ms = 1e300",
             "server_target_qps = 0",
             "server_target_qps = 10 qps",
             "tail_percentile = 0",
             "tail_percentile = 1.5",
             "max_over_latency_fraction = -0.1",
             "samples_per_query = 0",
             "multistream_arrival_ms = 1e-9",
             "record_timeline = yes",
             "scenario =",
             "trace_file = /nonexistent/trace.txt",
         }) {
        TestSettings s;
        try {
            s.applyConfig(std::string("# header\n\n") + bad + "\n");
            ADD_FAILURE() << "accepted: " << bad;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("config line 3: "),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(MalformedInput, BackwardsTraceFileIsRejectedThroughConfig)
{
    const std::string trace_path =
        ::testing::TempDir() + "backwards_trace.txt";
    {
        std::ofstream file(trace_path);
        file << "100\n200\n150\n";
    }
    TestSettings s;
    try {
        s.applyConfig("scenario = Server\ntrace_file = " + trace_path +
                      "\n");
        ADD_FAILURE() << "accepted a backwards trace";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("config line 2: "), std::string::npos) << what;
        EXPECT_NE(what.find("trace line 3: "), std::string::npos) << what;
    }
    EXPECT_TRUE(s.serverTrace.recorded.empty());
    std::remove(trace_path.c_str());
}

} // namespace
} // namespace loadgen
} // namespace mlperf
