#include "common/log.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/strutil.hh"

namespace wc3d {

namespace {

std::mutex gWriteMutex;

LogLevel
initialLevel()
{
    const char *v = std::getenv("WC3D_LOG_LEVEL");
    LogLevel level = LogLevel::Warn;
    if (v && *v && !parseLogLevel(v, level)) {
        // Can't use warn(): we are initializing its gate. One direct
        // write under the mutex keeps the line whole.
        std::lock_guard<std::mutex> lock(gWriteMutex);
        std::fprintf(stderr,
                     "warn: unknown WC3D_LOG_LEVEL '%s' "
                     "(quiet|warn|info|debug)\n",
                     v);
    }
    return level;
}

std::atomic<int> &
levelRef()
{
    static std::atomic<int> level{static_cast<int>(initialLevel())};
    return level;
}

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
    if (logLevel() < LogLevel::Warn)
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("warn", fmt, ap);
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Info)
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("info", fmt, ap);
    va_end(ap);
}

void
debugLog(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Debug)
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("debug", fmt, ap);
    va_end(ap);
}

LogLevel
logLevel()
{
    return static_cast<LogLevel>(
        levelRef().load(std::memory_order_relaxed));
}

void
setLogLevel(LogLevel level)
{
    levelRef().store(static_cast<int>(level), std::memory_order_relaxed);
}

bool
parseLogLevel(const std::string &s, LogLevel &out)
{
    std::string v = toLower(trim(s));
    if (v == "quiet" || v == "0")
        out = LogLevel::Quiet;
    else if (v == "warn" || v == "warning" || v == "1")
        out = LogLevel::Warn;
    else if (v == "info" || v == "2")
        out = LogLevel::Info;
    else if (v == "debug" || v == "3")
        out = LogLevel::Debug;
    else
        return false;
    return true;
}

} // namespace wc3d
