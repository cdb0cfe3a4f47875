#include "stats/distribution.hh"

#include <algorithm>
#include <cmath>

namespace wc3d::stats {

void
Distribution::sample(double v)
{
    sampleN(v, 1);
}

void
Distribution::sampleN(double v, std::uint64_t n)
{
    if (n == 0)
        return;
    _count += n;
    _sum += v * static_cast<double>(n);
    _sumSq += v * v * static_cast<double>(n);
    _min = std::min(_min, v);
    _max = std::max(_max, v);
}

void
Distribution::merge(const Distribution &o)
{
    _count += o._count;
    _sum += o._sum;
    _sumSq += o._sumSq;
    _min = std::min(_min, o._min);
    _max = std::max(_max, o._max);
}

void
Distribution::reset()
{
    *this = Distribution();
}

double
Distribution::min() const
{
    return _count ? _min : 0.0;
}

double
Distribution::max() const
{
    return _count ? _max : 0.0;
}

double
Distribution::mean() const
{
    return _count ? _sum / static_cast<double>(_count) : 0.0;
}

double
Distribution::variance() const
{
    if (_count < 2)
        return 0.0;
    double n = static_cast<double>(_count);
    double m = _sum / n;
    double var = _sumSq / n - m * m;
    return var > 0.0 ? var : 0.0;
}

double
Distribution::stddev() const
{
    return std::sqrt(variance());
}

} // namespace wc3d::stats
