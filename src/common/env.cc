#include "common/env.hh"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>

#include "common/log.hh"

namespace wc3d {

namespace {

/** @return true when everything from @p p on is whitespace. */
bool
restIsSpace(const char *p)
{
    while (*p) {
        if (!std::isspace(static_cast<unsigned char>(*p)))
            return false;
        ++p;
    }
    return true;
}

} // namespace

int
envInt(const char *name, int fallback, int min)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    errno = 0;
    char *end = nullptr;
    long parsed = std::strtol(v, &end, 10);
    if (end == v || !restIsSpace(end)) {
        warn("%s='%s' is not an integer; using default %d", name, v,
             fallback);
        return fallback;
    }
    if (errno == ERANGE || parsed < INT_MIN || parsed > INT_MAX) {
        warn("%s='%s' is out of integer range; using default %d", name,
             v, fallback);
        return fallback;
    }
    if (parsed < min) {
        warn("%s='%s' is below %d; using default %d", name, v, min,
             fallback);
        return fallback;
    }
    return static_cast<int>(parsed);
}

std::string
envString(const char *name, const std::string &fallback)
{
    const char *v = std::getenv(name);
    return (v && *v) ? std::string(v) : fallback;
}

} // namespace wc3d
