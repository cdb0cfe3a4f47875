#include "api/apistats.hh"

namespace wc3d::api {

void
ApiStats::noteStateCall()
{
    ++_stateCalls;
    _series.record("state_calls", 1.0);
}

void
ApiStats::noteDraw(geom::PrimitiveType topology, int index_count,
                   int bytes_per_index, int vs_instructions,
                   int fs_instructions, int fs_tex_instructions)
{
    ++_batches;
    ++_frameBatches;
    _indices += static_cast<std::uint64_t>(index_count);
    _indexBytes +=
        static_cast<std::uint64_t>(index_count) * bytes_per_index;
    _primsByType[static_cast<std::size_t>(topology)] +=
        static_cast<std::uint64_t>(
            geom::trianglesForIndices(topology, index_count));
    _vsInstrWeighted +=
        static_cast<double>(vs_instructions) * index_count;
    _fsInstrSum += fs_instructions;
    _fsTexSum += fs_tex_instructions;
    _frameFsInstr += fs_instructions;
    _frameFsTex += fs_tex_instructions;

    _series.record("batches", 1.0);
    _series.record("indices", index_count);
    _series.record("index_bytes",
                   static_cast<double>(index_count) * bytes_per_index);
    _series.record("primitives",
                   geom::trianglesForIndices(topology, index_count));
}

void
ApiStats::noteEndFrame()
{
    ++_frames;
    if (_frameBatches > 0) {
        _series.record("fs_instr_avg",
                       _frameFsInstr / static_cast<double>(_frameBatches));
        _series.record("fs_tex_avg",
                       _frameFsTex / static_cast<double>(_frameBatches));
    }
    _frameBatches = 0;
    _frameFsInstr = 0.0;
    _frameFsTex = 0.0;
    _series.endFrame();
}

std::uint64_t
ApiStats::primitives() const
{
    return _primsByType[0] + _primsByType[1] + _primsByType[2];
}

std::uint64_t
ApiStats::primitivesOfType(geom::PrimitiveType t) const
{
    return _primsByType[static_cast<std::size_t>(t)];
}

double
ApiStats::avgIndicesPerBatch() const
{
    return _batches ? static_cast<double>(_indices) / _batches : 0.0;
}

double
ApiStats::avgIndicesPerFrame() const
{
    return _frames ? static_cast<double>(_indices) / _frames : 0.0;
}

double
ApiStats::avgPrimitivesPerFrame() const
{
    return _frames ? static_cast<double>(primitives()) / _frames : 0.0;
}

double
ApiStats::avgBatchesPerFrame() const
{
    return _frames ? static_cast<double>(_batches) / _frames : 0.0;
}

double
ApiStats::avgIndexBytesPerFrame() const
{
    return _frames ? static_cast<double>(_indexBytes) / _frames : 0.0;
}

double
ApiStats::indexBwAtFps(double fps) const
{
    return avgIndexBytesPerFrame() * fps;
}

double
ApiStats::primitiveSharePct(geom::PrimitiveType t) const
{
    std::uint64_t total = primitives();
    return total ? 100.0 * static_cast<double>(primitivesOfType(t)) /
                       static_cast<double>(total)
                 : 0.0;
}

double
ApiStats::avgVertexShaderInstructions() const
{
    return _indices ? _vsInstrWeighted / static_cast<double>(_indices)
                    : 0.0;
}

double
ApiStats::avgFragmentInstructions() const
{
    return _batches ? _fsInstrSum / static_cast<double>(_batches) : 0.0;
}

double
ApiStats::avgFragmentTexInstructions() const
{
    return _batches ? _fsTexSum / static_cast<double>(_batches) : 0.0;
}

double
ApiStats::aluToTexRatio() const
{
    double tex = avgFragmentTexInstructions();
    double alu = avgFragmentInstructions() - tex;
    return tex > 0.0 ? alu / tex : alu;
}

} // namespace wc3d::api
