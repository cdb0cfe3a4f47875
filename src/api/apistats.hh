/**
 * @file
 * API-call-level statistics. This collector implements the paper's
 * Section III.A/B/D API metrics: batches per frame (Fig. 1), index
 * volume and bandwidth (Table III, Fig. 2), state calls per frame
 * (Fig. 3), primitive utilization (Table V), vertex shader length
 * (Table IV) and fragment shader composition (Table XII, Fig. 8).
 */

#ifndef WC3D_API_APISTATS_HH
#define WC3D_API_APISTATS_HH

#include <array>
#include <cstdint>

#include "geom/types.hh"
#include "stats/series.hh"

namespace wc3d::api {

/** Whole-run aggregate + per-frame series of API-level quantities. */
class ApiStats
{
  public:
    /** A non-draw, non-frame-boundary API call happened. */
    void noteStateCall();

    /**
     * A draw batch was submitted.
     *
     * @param topology     primitive topology
     * @param index_count  indices in the batch
     * @param bytes_per_index 2 or 4
     * @param vs_instructions bound vertex program length
     * @param fs_instructions bound fragment program length
     * @param fs_tex_instructions texture instructions in that program
     */
    void noteDraw(geom::PrimitiveType topology, int index_count,
                  int bytes_per_index, int vs_instructions,
                  int fs_instructions, int fs_tex_instructions);

    /** A frame boundary (present). */
    void noteEndFrame();

    /** @name Aggregates over the whole run */
    /// @{
    std::uint64_t frames() const { return _frames; }
    std::uint64_t batches() const { return _batches; }
    std::uint64_t indices() const { return _indices; }
    std::uint64_t indexBytes() const { return _indexBytes; }
    std::uint64_t stateCalls() const { return _stateCalls; }
    std::uint64_t primitives() const;
    std::uint64_t primitivesOfType(geom::PrimitiveType t) const;

    double avgIndicesPerBatch() const;
    double avgIndicesPerFrame() const;
    double avgPrimitivesPerFrame() const;
    double avgBatchesPerFrame() const;
    double avgIndexBytesPerFrame() const;

    /** Index bandwidth in bytes/s at @p fps (Table III "BW@100fps"). */
    double indexBwAtFps(double fps) const;

    /** Share of primitives using topology @p t, in percent. */
    double primitiveSharePct(geom::PrimitiveType t) const;

    /** Average vertex program instructions, weighted per index. */
    double avgVertexShaderInstructions() const;

    /** Average fragment program length / texture count per batch. */
    double avgFragmentInstructions() const;
    double avgFragmentTexInstructions() const;

    /** ALU:TEX ratio of the average fragment program (Table XII). */
    double aluToTexRatio() const;
    /// @}

    /** Per-frame series: "batches", "indices", "index_bytes",
     *  "state_calls", "fs_instr_avg", "fs_tex_avg". */
    const stats::FrameSeries &series() const { return _series; }

  private:
    std::uint64_t _frames = 0;
    std::uint64_t _batches = 0;
    std::uint64_t _indices = 0;
    std::uint64_t _indexBytes = 0;
    std::uint64_t _stateCalls = 0;
    std::array<std::uint64_t, 3> _primsByType{};
    double _vsInstrWeighted = 0.0;   // sum(vs_len * indices)
    double _fsInstrSum = 0.0;        // sum over batches
    double _fsTexSum = 0.0;

    // Current-frame accumulators for the series.
    std::uint64_t _frameBatches = 0;
    double _frameFsInstr = 0.0;
    double _frameFsTex = 0.0;

    stats::FrameSeries _series;
};

} // namespace wc3d::api

#endif // WC3D_API_APISTATS_HH
