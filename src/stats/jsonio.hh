/**
 * @file
 * JSON serialization of the statistics types: the run metrics manifest
 * (core/runmeta) summarizes each run's per-frame series through these
 * converters.
 */

#ifndef WC3D_STATS_JSONIO_HH
#define WC3D_STATS_JSONIO_HH

#include "common/json.hh"
#include "stats/distribution.hh"
#include "stats/series.hh"

namespace wc3d::stats {

/** {"count", "sum", "mean", "stddev", "min", "max"} (0s when empty). */
json::Value toJson(const Distribution &d);

/**
 * {"frames": N, "series": {name: {summary...}}} — per-frame series are
 * summarized (full frame vectors live in the CSV exports).
 */
json::Value toJson(const FrameSeries &s);

} // namespace wc3d::stats

#endif // WC3D_STATS_JSONIO_HH
