/**
 * @file
 * Environment-variable helpers used by benches to scale run lengths
 * (e.g. WC3D_FRAMES) without recompiling, and the strict number parser
 * command-line flags share with them.
 */

#ifndef WC3D_COMMON_ENV_HH
#define WC3D_COMMON_ENV_HH

#include <string>

namespace wc3d {

/**
 * @return the integer value of env var @p name, or @p fallback.
 * A value that is not entirely an in-range integer (trailing garbage
 * like "4x", overflow) is rejected with a warning, not truncated.
 */
int envInt(const char *name, int fallback);

/**
 * Strictly parse @p text as a finite double into @p out.
 * @return false, leaving @p out untouched, for an empty string,
 * trailing characters ("5%", "2.25x", "1 "), overflow, inf or nan.
 */
bool parseDouble(const char *text, double *out);

/** @return the value of env var @p name, or @p fallback. */
std::string envString(const char *name, const std::string &fallback);

} // namespace wc3d

#endif // WC3D_COMMON_ENV_HH
