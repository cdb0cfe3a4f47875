/**
 * @file
 * Per-block state directory used for framebuffer fast clear and
 * compression ([18], ATI Hyper-Z). GPU surfaces are divided into
 * fixed-size blocks; each block is either Cleared (no memory backing
 * needed), Compressed (half-size backing) or Uncompressed.
 *
 * The directory is assumed to live on-die, so state reads/updates cost
 * no GDDR bandwidth — exactly the mechanism the paper credits for the
 * z/colour BW reductions in Table XVII.
 */

#ifndef WC3D_MEMORY_BLOCKSTATE_HH
#define WC3D_MEMORY_BLOCKSTATE_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace wc3d::memsys {

/** Backing state of one surface block. */
enum class BlockState : std::uint8_t
{
    Cleared,      ///< whole block equals the clear value; zero-byte fill
    Compressed,   ///< block stored compressed (half the bytes)
    Uncompressed, ///< block stored raw
};

/** Directory of block states for one surface. */
class BlockStateDirectory
{
  public:
    /** @param blocks number of blocks in the surface. */
    explicit BlockStateDirectory(std::size_t blocks = 0);

    /** Mark every block Cleared (the fast-clear operation). */
    void fastClear();

    /** Number of blocks. */
    std::size_t blocks() const { return _states.size(); }

    /** Resize (used when a surface is (re)allocated). */
    void resize(std::size_t blocks);

    BlockState
    state(std::size_t block) const
    {
        WC3D_ASSERT(block < _states.size());
        return _states[block];
    }

    void
    setState(std::size_t block, BlockState s)
    {
        WC3D_ASSERT(block < _states.size());
        _states[block] = s;
    }

    /** Count of blocks currently in @p s. */
    std::size_t countInState(BlockState s) const;

  private:
    std::vector<BlockState> _states;
};

} // namespace wc3d::memsys

#endif // WC3D_MEMORY_BLOCKSTATE_HH
