/**
 * @file
 * Per-frame time series recorder. Reproduces the paper's figure data
 * (batches/frame, index BW/frame, state calls/frame, hit rates, ...):
 * each named series holds one double per frame, exported as CSV.
 */

#ifndef WC3D_STATS_SERIES_HH
#define WC3D_STATS_SERIES_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "stats/distribution.hh"

namespace wc3d::stats {

/** A set of named per-frame series of equal (growing) length. */
class FrameSeries
{
  public:
    /** Append one sample to series @p name for the current frame. */
    void record(const std::string &name, double value);

    /**
     * Advance to the next frame. Series not recorded this frame are
     * padded with 0 so all series stay aligned.
     */
    void endFrame();

    /** Number of completed frames. */
    int frames() const { return _frames; }

    /** @return the samples of @p name (empty when unknown). */
    const std::vector<double> &series(const std::string &name) const;

    /** All series names, in first-recorded order. */
    const std::vector<std::string> &names() const { return _order; }

    /** Summary statistics over the completed frames of @p name. */
    Distribution summary(const std::string &name) const;

    /** Render as CSV: a "frame" column, then one column per series,
     *  each value in the shortest text that reads back bit-exact. */
    std::string toCsv() const;

  private:
    int _frames = 0;
    std::unordered_map<std::string, std::vector<double>> _series;
    std::unordered_map<std::string, double> _pending;
    std::vector<std::string> _order;
};

} // namespace wc3d::stats

#endif // WC3D_STATS_SERIES_HH
