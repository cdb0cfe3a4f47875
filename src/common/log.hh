/**
 * @file
 * Logging and error-reporting helpers in the gem5 spirit: panic() for
 * internal invariant violations (simulator bugs), fatal() for user errors
 * (bad configuration), warn() for recoverable problems.
 *
 * Writers are thread-safe: each message is formatted off-line and
 * emitted as one stderr write under a mutex, so lines from pool
 * threads never interleave mid-line.
 */

#ifndef WC3D_COMMON_LOG_HH
#define WC3D_COMMON_LOG_HH

#include <cstdarg>

namespace wc3d {

/** Print a formatted message to stderr and abort(). Use for simulator bugs. */
[[noreturn]] void panic(const char *fmt, ...);

/** Print a formatted message to stderr and exit(1). Use for user errors. */
[[noreturn]] void fatal(const char *fmt, ...);

/** Print a formatted warning to stderr; execution continues. */
void warn(const char *fmt, ...);

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
