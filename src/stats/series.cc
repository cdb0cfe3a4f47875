#include "stats/series.hh"

#include <charconv>

#include "common/strutil.hh"

namespace wc3d::stats {

namespace {
const std::vector<double> kEmpty;

/** Shortest decimal form that parses back to exactly @p v (the CSV
 *  feeds the goldens, the benchmark digests and the figure files, so
 *  emission must be lossless). */
std::string
exactDouble(double v)
{
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}
} // namespace

void
FrameSeries::record(const std::string &name, double value)
{
    if (_series.find(name) == _series.end()) {
        // Backfill zeros for frames that happened before this series
        // first appeared so columns stay aligned.
        _series.emplace(name,
                        std::vector<double>(static_cast<std::size_t>(_frames),
                                            0.0));
        _order.push_back(name);
    }
    _pending[name] += value;
}

void
FrameSeries::endFrame()
{
    for (const auto &name : _order) {
        auto it = _pending.find(name);
        _series[name].push_back(it != _pending.end() ? it->second : 0.0);
    }
    _pending.clear();
    ++_frames;
}

const std::vector<double> &
FrameSeries::series(const std::string &name) const
{
    auto it = _series.find(name);
    return it != _series.end() ? it->second : kEmpty;
}

Distribution
FrameSeries::summary(const std::string &name) const
{
    Distribution d;
    for (double v : series(name))
        d.sample(v);
    return d;
}

std::string
FrameSeries::toCsv() const
{
    std::string out = "frame";
    for (const auto &name : _order)
        out += "," + name;
    out += "\n";
    for (int f = 0; f < _frames; ++f) {
        out += format("%d", f);
        for (const auto &name : _order) {
            const auto &s = _series.at(name);
            out += ',';
            out += exactDouble(f < static_cast<int>(s.size()) ? s[f]
                                                              : 0.0);
        }
        out += "\n";
    }
    return out;
}

} // namespace wc3d::stats
