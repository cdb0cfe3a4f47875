/**
 * @file
 * Streaming distribution statistics (count/sum/min/max/mean/variance).
 * Used for per-frame and per-event quantities such as triangle sizes
 * and batch sizes.
 */

#ifndef WC3D_STATS_DISTRIBUTION_HH
#define WC3D_STATS_DISTRIBUTION_HH

#include <cstdint>
#include <limits>

namespace wc3d::stats {

/** Welford-style streaming distribution. */
class Distribution
{
  public:
    /** Record one sample. */
    void sample(double v);

    /** Record @p n identical samples (weighted sample). */
    void sampleN(double v, std::uint64_t n);

    /** Merge another distribution into this one. */
    void merge(const Distribution &o);

    /** Reset to the empty state. */
    void reset();

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double min() const;
    double max() const;

    /** Arithmetic mean; 0 when empty. */
    double mean() const;

    /** Population variance; 0 when fewer than 2 samples. */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _sumSq = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

} // namespace wc3d::stats

#endif // WC3D_STATS_DISTRIBUTION_HH
