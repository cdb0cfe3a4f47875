/**
 * @file
 * Environment-variable helpers used to scale run lengths (e.g.
 * WC3D_FRAMES) without recompiling.
 */

#ifndef WC3D_COMMON_ENV_HH
#define WC3D_COMMON_ENV_HH

#include <climits>
#include <string>

namespace wc3d {

/**
 * @return the integer value of env var @p name, or @p fallback.
 * A value that is not entirely an in-range integer (trailing garbage
 * like "4x", overflow) or is below @p min is rejected with a warning,
 * not truncated or clamped.
 */
int envInt(const char *name, int fallback, int min = INT_MIN);

/** @return the value of env var @p name, or @p fallback. */
std::string envString(const char *name, const std::string &fallback);

} // namespace wc3d

#endif // WC3D_COMMON_ENV_HH
