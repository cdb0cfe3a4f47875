/**
 * @file
 * Fault-injection shim for durable file I/O. Every write that must
 * survive a crash (the report's results and figure files, metrics
 * manifests) funnels through writeAll()/syncFd() here, so filesystem
 * failure modes — ENOSPC, short writes — can be injected by a test
 * through setPlan() and the recovery paths tested rather than
 * asserted.
 *
 * The default plan injects nothing. All failures are reported as
 * structured IoError values; nothing in this layer calls fatal() or
 * throws.
 */

#ifndef WC3D_COMMON_FAULTIO_HH
#define WC3D_COMMON_FAULTIO_HH

#include <cstdint>
#include <string>

namespace wc3d::faultio {

/** One failed I/O step: which operation, on which path, and why. */
struct IoError
{
    std::string op;     ///< "open", "write", "fsync", "close", "rename"
    std::string path;   ///< file the operation targeted
    std::string reason; ///< strerror text or "injected ..." marker

    /** @return a one-line human-readable description. */
    std::string describe() const;
};

/** Injection plan; the default-constructed plan injects nothing. */
struct FaultPlan
{
    std::uint64_t failNthWrite = 0;     ///< 1-based; 0 = off
    std::uint64_t shortNthWrite = 0;    ///< 1-based; 0 = off
    bool allEnospc = false;             ///< every write fails
};

/** Replace the active plan (tests); resets the write counter. */
void setPlan(const FaultPlan &plan);

/** @return how many writeAll() calls have been attempted process-wide. */
std::uint64_t writesAttempted();

/**
 * Write all @p size bytes to @p fd, retrying on EINTR and continuing
 * after genuine partial writes, subject to the active fault plan.
 * @return false with @p err filled (when non-null) on any failure.
 */
bool writeAll(int fd, const void *data, std::size_t size,
              const std::string &path, IoError *err);

/** fsync @p fd. @return false with @p err filled on failure. */
bool syncFd(int fd, const std::string &path, IoError *err);

/**
 * fsync the directory containing @p path, making a preceding rename(2)
 * durable. @return false with @p err filled on failure.
 */
bool syncDirOf(const std::string &path, IoError *err);

} // namespace wc3d::faultio

#endif // WC3D_COMMON_FAULTIO_HH
