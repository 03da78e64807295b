/**
 * @file
 * Small string helpers shared by reporting and logging code.
 */

#ifndef MLPERF_COMMON_STRING_UTIL_H
#define MLPERF_COMMON_STRING_UTIL_H

#include <cstdint>
#include <string>
#include <vector>

namespace mlperf {

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Split on a delimiter; empty fields are preserved. */
std::vector<std::string> split(const std::string &s, char delim);

/** Join with a separator. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** Left/right-pad to a width with spaces (no-op if already wider). */
std::string padLeft(const std::string &s, size_t width);
std::string padRight(const std::string &s, size_t width);

/** Format a sample/query count like the paper: 24576 -> "24,576". */
std::string withThousands(uint64_t value);

/** Format nanoseconds in the most readable unit (ns/us/ms/s). */
std::string formatDuration(uint64_t ns);

/**
 * Parse @p text as a decimal integer in [0, 2^64): digits only, no
 * sign, space, exponent or hex prefix. Returns false (and leaves
 * @p value unspecified) for anything else, including overflow; unlike
 * std::stoull it never half-consumes "12x" or wraps "-5".
 */
bool parseUint64(const std::string &text, uint64_t &value);

} // namespace mlperf

#endif // MLPERF_COMMON_STRING_UTIL_H
