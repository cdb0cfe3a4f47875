#include "core/report.hh"

#include <algorithm>
#include <chrono>

#include "api/device.hh"
#include "common/env.hh"
#include "common/fs.hh"
#include "common/prof.hh"
#include "common/strutil.hh"
#include "common/threadpool.hh"
#include "core/apilevel.hh"
#include "core/buses.hh"
#include "core/microarch.hh"
#include "core/runmeta.hh"
#include "gpu/perfmodel.hh"
#include "gpu/simulator.hh"
#include "workloads/games.hh"

namespace wc3d::core {

namespace {

/** The games the paper plots in Figs. 1-3 (Fig. 8 shows two of them). */
const std::vector<std::string> kFigureGames = {
    "ut2004/primeval",    "doom3/trdemo2",  "quake4/demo4",
    "riddick/prisonarea", "fear/interval2", "hl2lc/builtin",
    "oblivion/anvilcastle", "splintercell3/firstlevel"};

std::string
section(const char *title, const stats::Table &table)
{
    return format("== %s ==\n", title) + table.toString() + "\n";
}

/** Figure file name of @p id: '/' is not allowed in a file name. */
std::string
fileStem(const std::string &id)
{
    std::string stem = id;
    std::replace(stem.begin(), stem.end(), '/', '_');
    return stem;
}

/** Accumulates the printed report and its results records. */
class ReportBuilder
{
  public:
    /** Print @p table under "key: title" and record every data cell. */
    void
    table(const char *key, const char *title, const stats::Table &table)
    {
        _text += section(format("%s: %s", key, title).c_str(), table);
        for (int r = 0; r < table.rows(); ++r) {
            for (int c = 1; c < table.columns(); ++c)
                record(key, table.cell(r, 0), table.header(c),
                       table.cell(r, c));
        }
    }

    /** Append @p line to the text as is. */
    void text(const std::string &line) { _text += line; }

    void
    record(const std::string &key, const std::string &row,
           const std::string &column, const std::string &value)
    {
        _results.addRow({key, row, column, value});
    }

    std::string takeText() { return std::move(_text); }
    std::string resultsCsv() const { return _results.toCsv(); }

  private:
    std::string _text;
    stats::Table _results{{"table", "row", "column", "value"}};
};

/** Summary of one API series per figure game: mean, min and max. */
void
apiFigure(ReportBuilder &out, const char *key, const char *title,
          const std::vector<ApiRun> &runs, const char *series)
{
    out.text(format("== %s: %s ==\n", key, title));
    for (const auto &run : runs) {
        auto d = run.stats.series().summary(series);
        std::string mean = format("%.1f", d.mean());
        std::string min = format("%.1f", d.min());
        std::string max = format("%.1f", d.max());
        out.text(format("%-28s mean %10s  min %10s  max %10s\n",
                        run.id.c_str(), mean.c_str(), min.c_str(),
                        max.c_str()));
        out.record(key, run.id, "mean", mean);
        out.record(key, run.id, "min", min);
        out.record(key, run.id, "max", max);
    }
    out.text("\n");
}

/** Per-frame means of microarchitectural series per simulated game. */
void
microFigure(ReportBuilder &out, const char *key, const char *title,
            const std::vector<MicroRun> &runs,
            const std::vector<const char *> &series)
{
    out.text(format("== %s: %s ==\n", key, title));
    for (const auto &run : runs) {
        std::string line = format("%-22s", run.id.c_str());
        for (const char *name : series) {
            std::string mean =
                format("%.2f", run.series.summary(name).mean());
            line += format("  %s=%s", name, mean.c_str());
            out.record(key, run.id, name, mean);
        }
        out.text(line + "\n");
    }
    out.text("\n");
}

/**
 * Run @p run for every id of @p ids on the pool under span @p span and
 * append the wall clock to @p phases as @p phase. Results land at
 * their id's index, so the order matches a serial loop; each run's
 * simulator is confined to the task executing it (nested shading
 * parallelism shards only pure work), so its statistics are untouched
 * by the fan-out.
 */
template <typename Run>
std::vector<Run>
fanOut(const char *phase, const char *span,
       const std::vector<std::string> &ids,
       Run (*run)(const std::string &, int), int frames,
       std::vector<RunPhase> &phases)
{
    auto start = std::chrono::steady_clock::now();
    std::vector<Run> runs(ids.size());
    {
        WC3D_PROF_SCOPE(span);
        TaskGroup group;
        for (std::size_t i = 0; i < ids.size(); ++i) {
            group.run([&runs, &ids, run, i, frames] {
                runs[i] = run(ids[i], frames);
            });
        }
        group.wait();
    }
    phases.push_back(
        {phase, std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count()});
    return runs;
}

} // namespace

int
defaultFigureFrames()
{
    return envInt("WC3D_FIG_FRAMES", 600, 1);
}

Report
fullReport(const ReportOptions &options)
{
    int api_frames =
        options.apiFrames > 0 ? options.apiFrames : defaultApiFrames();
    int micro_frames = options.microFrames > 0 ? options.microFrames
                                               : defaultMicroFrames();
    int figure_frames = options.figureFrames > 0 ? options.figureFrames
                                                 : defaultFigureFrames();

    std::vector<RunPhase> phases;
    auto figure_runs =
        fanOut<ApiRun>("figure_runs", "run.fanout.figures", kFigureGames,
                       runApiLevel, figure_frames, phases);
    auto api_runs =
        fanOut<ApiRun>("api_runs", "run.fanout.api",
                       workloads::allTimedemoIds(), runApiLevel,
                       api_frames, phases);
    std::vector<MicroRun> micro;
    if (options.includeMicroarch) {
        micro = fanOut<MicroRun>(
            "micro_runs", "run.fanout.micro",
            workloads::simulatedTimedemoIds(),
            [](const std::string &id, int frames) {
                return runMicroarch(id, frames);
            },
            micro_frames, phases);
    }

    ReportBuilder out;
    out.table("Table I", "workload description", tableWorkloads());
    out.table("Table II", "simulator configuration",
              tableConfig(gpu::GpuConfig{}));
    out.table("Table III", "index traffic", tableIndexTraffic(api_runs));
    out.table("Table IV", "vertex shader instructions",
              tableVertexShader(api_runs));
    out.table("Table V", "primitive utilization",
              tablePrimitives(api_runs));
    out.table("Table VI", "system bus bandwidths", tableBuses());
    double worst = 0.0;
    std::string worst_id;
    for (const auto &run : api_runs) {
        if (run.stats.indexBwAtFps(100.0) > worst) {
            worst = run.stats.indexBwAtFps(100.0);
            worst_id = run.id;
        }
    }
    std::string worst_mbs = format("%.0f", worst / 1e6);
    out.text(format("worst-case index traffic: %s at %s MB/s @100fps -- "
                    "far below every bus above (the paper's argument "
                    "for triangle lists)\n\n",
                    worst_id.c_str(), worst_mbs.c_str()));
    out.record("Table VI", "worst-case index traffic @100fps", "game",
               worst_id);
    out.record("Table VI", "worst-case index traffic @100fps", "MB/s",
               worst_mbs);
    if (options.includeMicroarch) {
        out.table("Table VII", "clipped/culled/traversed",
                  tableClipCull(micro));
        out.table("Table VIII", "triangle size per stage",
                  tableTriangleSize(micro));
        out.table("Table IX", "quad removal per stage",
                  tableQuadRemoval(micro));
        out.table("Table X", "quad efficiency",
                  tableQuadEfficiency(micro));
        out.table("Table XI", "overdraw per stage", tableOverdraw(micro));
    }
    out.table("Table XII", "fragment shader composition",
              tableFragmentShader(api_runs));
    if (options.includeMicroarch) {
        out.table("Table XIII", "bilinears per request",
                  tableBilinears(micro));
        out.table("Table XIV", "cache hit rates",
                  tableCaches(micro, gpu::GpuConfig{}));
        out.table("Table XV", "memory bandwidth", tableMemoryBw(micro));
        out.table("Table XVI", "traffic distribution",
                  tableTrafficDistribution(micro));
        out.table("Table XVII", "bytes per vertex/fragment",
                  tableBytesPerItem(micro));
    }

    apiFigure(out, "Figure 1", "batches per frame (series summary)",
              figure_runs, "batches");
    apiFigure(out, "Figure 2", "index bytes per frame (series summary)",
              figure_runs, "index_bytes");
    apiFigure(out, "Figure 3",
              "state calls per frame (series summary; note the setup "
              "spike in frame 0 and periodic scene-transition spikes)",
              figure_runs, "state_calls");
    if (options.includeMicroarch) {
        microFigure(out, "Figure 5",
                    "vertex cache hit rate (per-frame mean; theoretical "
                    "strip bound is 0.667)",
                    micro, {"vcache_hit_rate"});
        microFigure(out, "Figure 6",
                    "indices / assembled / traversed per frame", micro,
                    {"indices", "assembled", "traversed"});
        microFigure(out, "Figure 7",
                    "per-frame average triangle size at raster/z/shade",
                    micro,
                    {"tri_size_raster", "tri_size_zst", "tri_size_shaded"});
    }
    std::vector<ApiRun> fig8_runs;
    for (const auto &run : figure_runs) {
        if (run.id == "quake4/demo4" || run.id == "fear/interval2")
            fig8_runs.push_back(run);
    }
    apiFigure(out, "Figure 8",
              "average fragment program instructions per frame",
              fig8_runs, "fs_instr_avg");

    Report report;
    report.text = out.takeText();
    report.files.push_back({"results.csv", out.resultsCsv()});
    report.files.push_back(
        {"metrics.json",
         metricsDocument(api_runs, micro, phases).serialize(1) + "\n"});
    for (const auto &run : figure_runs)
        report.files.push_back({fileStem(run.id) + "_api.csv",
                                figureCsv(run)});
    for (const auto &run : micro)
        report.files.push_back({fileStem(run.id) + "_micro.csv",
                                microFigureCsv(run)});
    return report;
}

bool
writeReportFiles(const Report &report, const std::string &dir,
                 std::string *error)
{
    if (!makeDirs(dir)) {
        if (error)
            *error = format("cannot create directory '%s'", dir.c_str());
        return false;
    }
    for (const auto &file : report.files) {
        if (!atomicWriteFile(dir + "/" + file.name, file.content, error))
            return false;
    }
    return true;
}

std::string
gameReport(const std::string &id, const ReportOptions &options)
{
    int api_frames =
        options.apiFrames > 0 ? options.apiFrames : defaultApiFrames();
    int micro_frames = options.microFrames > 0 ? options.microFrames
                                               : defaultMicroFrames();

    const auto &profile = workloads::gameProfile(id);
    std::string out =
        format("Characterization of %s (%s, %s engine)\n\n", id.c_str(),
               api::graphicsApiName(profile.apiKind),
               profile.engine.c_str());

    std::vector<ApiRun> api_runs = {runApiLevel(id, api_frames)};
    out += section("API: index traffic", tableIndexTraffic(api_runs));
    out += section("API: vertex shader", tableVertexShader(api_runs));
    out += section("API: primitives", tablePrimitives(api_runs));
    out += section("API: fragment shader",
                   tableFragmentShader(api_runs));

    bool simulated = false;
    for (const auto &sim_id : workloads::simulatedTimedemoIds())
        simulated |= sim_id == id;
    if (options.includeMicroarch && simulated) {
        std::vector<MicroRun> micro = {
            runMicroarch(id, micro_frames)};
        out += section("uArch: clip/cull", tableClipCull(micro));
        out += section("uArch: triangle size",
                       tableTriangleSize(micro));
        out += section("uArch: quad removal", tableQuadRemoval(micro));
        out += section("uArch: quad efficiency",
                       tableQuadEfficiency(micro));
        out += section("uArch: overdraw", tableOverdraw(micro));
        out += section("uArch: bilinears", tableBilinears(micro));
        out += section("uArch: caches",
                       tableCaches(micro, gpu::GpuConfig{}));
        out += section("uArch: memory BW", tableMemoryBw(micro));
        out += section("uArch: traffic distribution",
                       tableTrafficDistribution(micro));
        out += section("uArch: bytes per item",
                       tableBytesPerItem(micro));
        // Extension: throughput-bound cycle estimate from the Table II
        // rates (the paper reports no timing; see gpu/perfmodel.hh).
        gpu::PerfEstimate perf =
            gpu::estimatePerf(micro[0].counters, gpu::GpuConfig{});
        out += "== Extension: throughput-bound performance model ==\n";
        out += gpu::describePerf(perf, micro[0].frames);
    }
    return out;
}

std::string
hzAblationReport()
{
    struct Mode
    {
        const char *label;
        bool hz;
        bool minmax;
    };
    const Mode modes[] = {{"off", false, false},
                          {"max-only", true, false},
                          {"min/max", true, true}};
    constexpr int kFrames = 2;
    std::string out = "=== Ablation: Hierarchical Z (doom3/trdemo2, "
                      "512x384, 2 frames) ===\n";
    out += format("%-10s %18s %24s %16s %14s\n", "HZ",
                  "z traffic MB/frame", "quads removed pre-shade",
                  "shaded overdraw", "early accepts");
    for (const Mode &mode : modes) {
        gpu::GpuConfig config;
        config.width = 512;
        config.height = 384;
        config.hzEnabled = mode.hz;
        config.hzMinMax = mode.minmax;
        gpu::GpuSimulator sim(config);
        api::Device dev;
        dev.setSink(&sim);
        workloads::makeTimedemo("doom3/trdemo2")->run(dev, kFrames);
        auto c = sim.counters();
        int zi = static_cast<int>(memsys::Client::ZStencil);
        double z_traffic_mb = static_cast<double>(c.traffic.readBytes[zi] +
                                                  c.traffic.writeBytes[zi]) /
                              kFrames / 1e6;
        out += format("%-10s %18.1f %23.1f%% %16.2f %13.1f%%\n",
                      mode.label, z_traffic_mb,
                      c.pctQuadsRemovedHz() + c.pctQuadsRemovedZStencil(),
                      c.overdrawShaded(config.pixels() * kFrames),
                      100.0 * sim.hzStats().acceptRate());
    }
    out += "HZ must not change WHAT is removed before shading (same "
           "visibility), only WHERE: with HZ the removal is on-die and "
           "the z-stage GDDR traffic drops. The min/max variant (the "
           "paper's suggested improvement) further skips the z-buffer "
           "READ for early-accepted quads.\n";
    return out;
}

std::string
vertexCacheAblationReport()
{
    constexpr int kFrames = 2;
    std::string out = "=== Ablation: post-transform vertex cache size "
                      "(ut2004/primeval, 2 frames) ===\n";
    out += format("%-10s %10s %26s\n", "entries", "hit rate",
                  "shaded vertices/frame");
    for (int entries : {4, 8, 16, 32, 64}) {
        gpu::GpuConfig config;
        config.width = 256;
        config.height = 192;
        config.vertexCacheEntries = entries;
        gpu::GpuSimulator sim(config);
        api::Device dev;
        dev.setSink(&sim);
        workloads::makeTimedemo("ut2004/primeval")->run(dev, kFrames);
        auto c = sim.counters();
        out += format("%-10d %9.1f%% %26.0f\n", entries,
                      100.0 * c.vertexCacheHitRate(),
                      static_cast<double>(c.vertexCacheMisses) / kFrames);
    }
    out += "Up to 16 entries (the paper's R520-era sizing) the hit rate "
           "stays near the 2/3 reuse of strip-ordered lists; 32 entries "
           "raise it well above that and cut the vertices shaded per "
           "frame.\n";
    return out;
}

} // namespace wc3d::core
