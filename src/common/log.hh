/**
 * @file
 * Logging and error-reporting helpers in the gem5 spirit: panic() for
 * internal invariant violations (simulator bugs), fatal() for user errors
 * (bad configuration), warn()/inform()/debugLog() for status messages.
 *
 * Writers are thread-safe: each message is formatted off-line and
 * emitted as one stderr write under a mutex, so lines from pool
 * threads never interleave mid-line. Verbosity is controlled by the
 * WC3D_LOG_LEVEL environment knob (quiet|warn|info|debug, or 0-3;
 * default warn) or programmatically via setLogLevel(). panic() and
 * fatal() always print.
 */

#ifndef WC3D_COMMON_LOG_HH
#define WC3D_COMMON_LOG_HH

#include <cstdarg>
#include <string>

namespace wc3d {

/** Verbosity threshold; each level includes the ones before it. */
enum class LogLevel
{
    Quiet = 0, ///< only panic/fatal
    Warn = 1,  ///< + warn()
    Info = 2,  ///< + inform()
    Debug = 3, ///< + debugLog()
};

/** Print a formatted message to stderr and abort(). Use for simulator bugs. */
[[noreturn]] void panic(const char *fmt, ...);

/** Print a formatted message to stderr and exit(1). Use for user errors. */
[[noreturn]] void fatal(const char *fmt, ...);

/** Print a formatted warning to stderr; execution continues. */
void warn(const char *fmt, ...);

/** Print a formatted informational message to stderr. */
void inform(const char *fmt, ...);

/** Print a formatted debug message to stderr (Debug level only). */
void debugLog(const char *fmt, ...);

/** Current verbosity (initialized from WC3D_LOG_LEVEL on first use). */
LogLevel logLevel();

/** Override the verbosity threshold. */
void setLogLevel(LogLevel level);

/**
 * Parse a WC3D_LOG_LEVEL value ("quiet"/"warn"/"info"/"debug", or a
 * number 0-3). @return false when @p s is not a level (@p out kept).
 */
bool parseLogLevel(const std::string &s, LogLevel &out);

} // namespace wc3d

/**
 * Assertion macro that survives NDEBUG builds: checks @p cond and panics
 * with the stringified condition and location when it fails.
 */
#define WC3D_ASSERT(cond)                                                    \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::wc3d::panic("assertion '%s' failed at %s:%d",                  \
                          #cond, __FILE__, __LINE__);                        \
        }                                                                    \
    } while (0)

#endif // WC3D_COMMON_LOG_HH
