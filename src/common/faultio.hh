/**
 * @file
 * Fault-injection shim for durable file I/O. Every write that must
 * survive a crash (the v5 run cache, the fleet store index, metrics
 * manifests) funnels through writeAll()/syncFd() here, so filesystem
 * failure modes — ENOSPC, short writes — can be injected by a test
 * through setPlan() and the recovery paths tested rather than
 * asserted.
 *
 * The shader JIT's executable-memory layer (common/execmem.hh) funnels
 * its mmap/mprotect calls through here for the same reason: address-
 * space exhaustion and W^X remap refusals must degrade to the decoded
 * interpreter, and that fallback path needs a deterministic trigger.
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
    std::uint64_t failNthMmap = 0;      ///< 1-based; 0 = off
    std::uint64_t failNthProtect = 0;   ///< 1-based; 0 = off
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

/**
 * mmap an anonymous, private, read+write region of @p size bytes,
 * subject to the active fault plan. @p what names the consumer for
 * error reports (it plays the role a file path plays for writeAll).
 * @return the mapping, or nullptr with @p err filled on failure.
 */
void *mapAnonRw(std::size_t size, const std::string &what, IoError *err);

/**
 * Remap [@p addr, @p addr + @p size) from read+write to read+execute
 * (the W^X flip after code emission), subject to the active fault plan.
 * @return false with @p err filled on failure; the mapping stays RW.
 */
bool protectExec(void *addr, std::size_t size, const std::string &what,
                 IoError *err);

/** munmap a region obtained from mapAnonRw() (never injected; a failed
 *  unmap only leaks address space and is logged, not propagated). */
void unmap(void *addr, std::size_t size);

/** fsync @p fd. @return false with @p err filled on failure. */
bool syncFd(int fd, const std::string &path, IoError *err);

/**
 * fsync the directory containing @p path, making a preceding rename(2)
 * durable. @return false with @p err filled on failure.
 */
bool syncDirOf(const std::string &path, IoError *err);

} // namespace wc3d::faultio

#endif // WC3D_COMMON_FAULTIO_HH
