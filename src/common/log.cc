#include "common/log.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

namespace wc3d {

namespace {

std::mutex gWriteMutex;

/**
 * Format off-line, write once: a single fputs of the complete line
 * under the mutex keeps concurrent messages from interleaving.
 */
void
vreport(const char *tag, const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap2);
    va_end(ap2);
    std::string line(tag);
    line += ": ";
    if (n > 0) {
        std::string body(static_cast<std::size_t>(n) + 1, '\0');
        std::vsnprintf(body.data(), body.size(), fmt, ap);
        body.resize(static_cast<std::size_t>(n));
        line += body;
    }
    line += '\n';
    std::lock_guard<std::mutex> lock(gWriteMutex);
    std::fputs(line.c_str(), stderr);
}

} // namespace

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("warn", fmt, ap);
    va_end(ap);
}

} // namespace wc3d
