#include "common/string_util.h"

#include <cstdarg>
#include <cstdint>
#include <cstdio>

namespace mlperf {

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<size_t>(needed));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    }
    va_end(args_copy);
    return out;
}

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        const size_t pos = s.find(delim, start);
        if (pos == std::string::npos) {
            out.push_back(s.substr(start));
            break;
        }
        out.push_back(s.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::string
padLeft(const std::string &s, size_t width)
{
    if (s.size() >= width)
        return s;
    return std::string(width - s.size(), ' ') + s;
}

std::string
padRight(const std::string &s, size_t width)
{
    if (s.size() >= width)
        return s;
    return s + std::string(width - s.size(), ' ');
}

std::string
withThousands(uint64_t value)
{
    std::string digits = std::to_string(value);
    std::string out;
    const size_t n = digits.size();
    for (size_t i = 0; i < n; ++i) {
        if (i && (n - i) % 3 == 0)
            out += ',';
        out += digits[i];
    }
    return out;
}

std::string
formatDuration(uint64_t ns)
{
    if (ns < 1000)
        return strprintf("%lu ns", static_cast<unsigned long>(ns));
    if (ns < 1000 * 1000)
        return strprintf("%.2f us", ns / 1e3);
    if (ns < 1000ULL * 1000 * 1000)
        return strprintf("%.2f ms", ns / 1e6);
    return strprintf("%.2f s", ns / 1e9);
}

bool
parseUint64(const std::string &text, uint64_t &value)
{
    if (text.empty())
        return false;
    value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return false;
        const uint64_t digit = static_cast<uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10)
            return false;
        value = value * 10 + digit;
    }
    return true;
}

} // namespace mlperf
