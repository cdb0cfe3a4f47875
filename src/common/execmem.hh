/**
 * @file
 * Executable-memory mapping for the shader JIT, with a strict W^X
 * lifecycle: a block is mapped anonymous read+write, code is emitted
 * into it, and seal() remaps it read+execute before the first call into
 * the generated kernel. The block is never writable and executable at
 * the same time.
 *
 * Both the initial mmap and the W^X mprotect funnel through the faultio
 * shim (common/faultio.hh), so a test's fault plan (failNthMmap /
 * failNthProtect) can force either step to fail and exercise the JIT's
 * decoded-interpreter fallback. All failures are reported as
 * structured errors; nothing here calls fatal().
 */

#ifndef WC3D_COMMON_EXECMEM_HH
#define WC3D_COMMON_EXECMEM_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/faultio.hh"

namespace wc3d {

/**
 * One anonymous mapping destined to hold generated code. Move-only;
 * the destructor unmaps. A default-constructed instance is invalid.
 */
class ExecMemory
{
  public:
    ExecMemory() = default;
    ~ExecMemory();

    ExecMemory(ExecMemory &&other) noexcept;
    ExecMemory &operator=(ExecMemory &&other) noexcept;
    ExecMemory(const ExecMemory &) = delete;
    ExecMemory &operator=(const ExecMemory &) = delete;

    /**
     * Map @p size bytes (rounded up to whole pages) read+write.
     * @p what names the consumer in error reports. On failure the
     * returned instance is !valid() and @p err is filled when non-null.
     */
    static ExecMemory map(std::size_t size, const std::string &what,
                          faultio::IoError *err);

    /**
     * Flip the whole block from RW to RX (the W^X transition). Call
     * exactly once, after emission and before execution. @return false
     * with @p err filled on failure; the block stays RW and must not
     * be executed.
     */
    bool seal(faultio::IoError *err);

    std::uint8_t *data() const { return _data; }
    std::size_t size() const { return _size; }
    bool valid() const { return _data != nullptr; }
    bool sealed() const { return _sealed; }

  private:
    std::uint8_t *_data = nullptr;
    std::size_t _size = 0;
    bool _sealed = false;
    std::string _what;
};

} // namespace wc3d

#endif // WC3D_COMMON_EXECMEM_HH
