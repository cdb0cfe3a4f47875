#include "fleet/query.hh"

#include <algorithm>
#include <cmath>

namespace wc3d::fleet {

std::vector<StageBreakdown>
stageBreakdown(const json::Value &doc)
{
    std::vector<StageBreakdown> out;
    const json::Value *phases = doc.find("phases");
    if (!phases || !phases->isArray())
        return out;
    double total = 0.0;
    for (const json::Value &phase : phases->items()) {
        const json::Value *name = phase.find("name");
        const json::Value *seconds = phase.find("seconds");
        if (!name || !name->isString() || !seconds ||
            !seconds->isNumber())
            continue;
        StageBreakdown row;
        row.name = name->asString();
        row.seconds = seconds->asDouble();
        const json::Value *calls = phase.find("calls");
        row.calls = calls && calls->isNumber() ? calls->asU64() : 0;
        total += row.seconds;
        out.push_back(std::move(row));
    }
    for (StageBreakdown &row : out)
        row.fraction = total > 0.0 ? row.seconds / total : 0.0;
    std::sort(out.begin(), out.end(),
              [](const StageBreakdown &a, const StageBreakdown &b) {
                  return a.seconds > b.seconds;
              });
    return out;
}

std::vector<std::pair<std::string, double>>
flattenCounters(const json::Value &doc)
{
    std::vector<std::pair<std::string, double>> out;
    const json::Value *registry = doc.find("registry");
    const json::Value *counters =
        registry ? registry->find("counters") : nullptr;
    if (!counters || !counters->isObject())
        return out;
    for (const auto &kv : counters->members()) {
        if (!kv.second.isNumber())
            continue;
        out.emplace_back(kv.first, kv.second.asDouble());
    }
    // Derived hit rates: "<prefix>.cache.<c>.hitRate" from the
    // hits/accesses counter pairs — drift gates care about rates, not
    // absolute counts that scale with run length.
    for (const auto &kv : counters->members()) {
        const std::string &name = kv.first;
        const std::string suffix = ".accesses";
        if (name.size() <= suffix.size() ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        double accesses = kv.second.asDouble();
        if (accesses <= 0.0)
            continue;
        std::string stem = name.substr(0, name.size() - suffix.size());
        const json::Value *hits = counters->find(stem + ".hits");
        if (!hits || !hits->isNumber())
            continue;
        out.emplace_back(stem + ".hitRate", hits->asDouble() / accesses);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::size_t
compareCounters(const json::Value &base_doc,
                const json::Value &cur_doc, double threshold,
                const std::string &prefix,
                std::vector<Drift> *exceeded,
                std::vector<std::string> *only_base,
                std::vector<std::string> *only_cur)
{
    auto wanted = [&prefix](const std::string &name) {
        return prefix.empty() ||
               name.compare(0, prefix.size(), prefix) == 0;
    };
    auto base = flattenCounters(base_doc);
    auto cur = flattenCounters(cur_doc);
    std::size_t compared = 0;
    std::size_t bi = 0, ci = 0;
    while (bi < base.size() || ci < cur.size()) {
        if (ci >= cur.size() ||
            (bi < base.size() && base[bi].first < cur[ci].first)) {
            if (only_base && wanted(base[bi].first))
                only_base->push_back(base[bi].first);
            ++bi;
            continue;
        }
        if (bi >= base.size() || cur[ci].first < base[bi].first) {
            if (only_cur && wanted(cur[ci].first))
                only_cur->push_back(cur[ci].first);
            ++ci;
            continue;
        }
        if (wanted(base[bi].first)) {
            ++compared;
            double b = base[bi].second;
            double c = cur[ci].second;
            double rel;
            if (b == c)
                rel = 0.0;
            else if (b == 0.0)
                rel = 1.0; // counter appeared out of nothing
            else
                rel = std::fabs(c - b) / std::fabs(b);
            if (rel > threshold && exceeded)
                exceeded->push_back(
                    Drift{base[bi].first, b, c, rel});
        }
        ++bi;
        ++ci;
    }
    return compared;
}

} // namespace wc3d::fleet
