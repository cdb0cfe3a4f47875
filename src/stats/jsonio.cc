#include "stats/jsonio.hh"

namespace wc3d::stats {

json::Value
toJson(const Distribution &d)
{
    json::Value out = json::Value::object();
    out.set("count", json::Value::number(d.count()));
    out.set("sum", json::Value::number(d.sum()));
    out.set("mean", json::Value::number(d.mean()));
    out.set("stddev", json::Value::number(d.stddev()));
    // min/max are +/-inf when empty; JSON has no inf literal.
    out.set("min", json::Value::number(d.count() ? d.min() : 0.0));
    out.set("max", json::Value::number(d.count() ? d.max() : 0.0));
    return out;
}

json::Value
toJson(const FrameSeries &s)
{
    json::Value series = json::Value::object();
    for (const auto &name : s.names())
        series.set(name, toJson(s.summary(name)));
    json::Value out = json::Value::object();
    out.set("frames", json::Value::number(
                          static_cast<std::int64_t>(s.frames())));
    out.set("series", std::move(series));
    return out;
}

} // namespace wc3d::stats
