#include "driver/stats_report.h"

#include "driver/trace_pipeline.h"
#include "mem/memory_model.h"
#include "sim/logging.h"
#include "sim/metrics.h"
#include "sim/parallel.h"
#include "sim/stats_export.h"
#include "timing/network_model.h"

namespace cnv::driver {

namespace {

void
fillActivity(sim::StatGroup &g, const dadiannao::Activity &a)
{
    g.addCounter("other", "lane events in non-conv layers") += a.other;
    g.addCounter("conv1", "lane events in the first conv layer") +=
        a.conv1;
    g.addCounter("zero", "lane events processing zero neurons") += a.zero;
    g.addCounter("nonZero", "lane events processing non-zero neurons") +=
        a.nonZero;
    g.addCounter("stall", "lane events idle on window sync") += a.stall;
}

void
fillEnergy(sim::StatGroup &g, const dadiannao::EnergyCounters &e)
{
    g.addCounter("sbReads", "16-synapse SB sublane reads") += e.sbReads;
    g.addCounter("nmReads", "16-neuron-wide NM reads") += e.nmReads;
    g.addCounter("nmWrites", "16-neuron-wide NM writes") += e.nmWrites;
    g.addCounter("nbinReads", "NBin entry reads") += e.nbinReads;
    g.addCounter("nbinWrites", "NBin entry writes") += e.nbinWrites;
    g.addCounter("multOps", "multiplications performed") += e.multOps;
    g.addCounter("addOps", "adder-tree additions") += e.addOps;
    g.addCounter("encoderOps", "encoder neuron examinations") +=
        e.encoderOps;
    g.addCounter("offchipBytes", "bytes streamed from off-chip") +=
        e.offchipBytes;
}

void
fillMicro(sim::StatGroup &g, const dadiannao::MicroTrace &m,
          bool memModelled)
{
    g.addCounter("laneBusyCycles",
                 "per-unit lane-cycles doing datapath work") +=
        m.laneBusyCycles;
    g.addCounter("laneIdleCycles",
                 "per-unit lane-cycles idle (sync or memory)") +=
        m.laneIdleCycles;
    sim::StatGroup &stalls = g.addGroup("stalls");
    for (const dadiannao::StallReasonInfo &info : dadiannao::kStallReasons) {
        if (dadiannao::isMemoryStall(info.reason) && !memModelled)
            continue;
        stalls.addCounter(info.name, info.desc) += m.stalls[info.reason];
    }
    g.addCounter("encoderBusyCycles",
                 "cycles the serial encoder spent converting") +=
        m.encoderBusyCycles;
    g.addCounter("encoderBricks", "ZFNAf bricks the encoder produced") +=
        m.encoderBricks;
    g.addFormula("laneUtilisation",
                 "busy fraction of modelled lane-cycles",
                 [m] { return m.laneUtilisation(); });
}

/** Idle lane-cycles attributed to the memory hierarchy. */
std::uint64_t
memStallCycles(const dadiannao::StallBreakdown &s)
{
    std::uint64_t sum = 0;
    for (const dadiannao::StallReasonInfo &info : dadiannao::kStallReasons) {
        if (dadiannao::isMemoryStall(info.reason))
            sum += s[info.reason];
    }
    return sum;
}

/** Memory-bound: over half the layer's lane-cycles wait on memory. */
bool
isMemoryBound(const dadiannao::MicroTrace &m)
{
    const std::uint64_t total = m.laneBusyCycles + m.laneIdleCycles;
    return total > 0 && memStallCycles(m.stalls) * 2 > total;
}

void
fillMemory(sim::StatGroup &g, const dadiannao::MemTrace &mem,
           const dadiannao::MicroTrace &micro)
{
    g.addCounter("nmAccesses", "brick-granular NM reads issued") +=
        mem.nmAccesses;
    g.addCounter("nmConflictCycles",
                 "extra cycles serialising on NM bank conflicts") +=
        mem.nmConflictCycles;
    g.addCounter("gbHits", "global-buffer hits") += mem.gbHits;
    g.addCounter("gbMisses", "global-buffer misses") += mem.gbMisses;
    g.addCounter("gbEvictions", "global-buffer capacity evictions") +=
        mem.gbEvictions;
    g.addCounter("dramBytes", "off-chip bytes transferred") +=
        mem.dramBytes;
    g.addCounter("dramCycles", "DRAM channel busy cycles") +=
        mem.dramCycles;
    const std::uint64_t memStall = memStallCycles(micro.stalls);
    const std::uint64_t total =
        micro.laneBusyCycles + micro.laneIdleCycles;
    g.addFormula("memStallShare",
                 "fraction of lane-cycles idle on the memory hierarchy",
                 [memStall, total] {
                     return total > 0 ? static_cast<double>(memStall) /
                                            static_cast<double>(total)
                                      : 0.0;
                 });
}

} // namespace

std::unique_ptr<sim::StatGroup>
buildStats(const dadiannao::NetworkResult &result,
           const arch::ArchModel &model, const power::PowerParams &params)
{
    auto root = std::make_unique<sim::StatGroup>(result.architecture);

    auto &cycles = root->addCounter("cycles", "total execution cycles");
    cycles += result.totalCycles();

    const dadiannao::Activity activity = result.totalActivity();
    fillActivity(root->addGroup("activity"), activity);
    fillEnergy(root->addGroup("energy"), result.totalEnergy());
    fillMicro(root->addGroup("micro"), result.totalMicro(),
              result.memModelled);
    if (result.memModelled)
        fillMemory(root->addGroup("memory"), result.totalMem(),
                   result.totalMicro());

    // Derived quantities the paper reasons about.
    const double total = static_cast<double>(activity.total());
    root->addFormula("zeroShare",
                     "fraction of lane events processing zeros",
                     [activity, total] {
                         return total > 0 ? activity.zero / total : 0.0;
                     });
    root->addFormula("laneUtilisation",
                     "fraction of lane events doing non-zero work",
                     [activity, total] {
                         return total > 0
                             ? (activity.nonZero + activity.conv1 +
                                activity.other) / total
                             : 0.0;
                     });

    const auto metrics =
        model.metrics(result.totalEnergy(), result.totalCycles(), params);
    auto &pw = root->addGroup("power");
    const auto breakdown =
        model.power(result.totalEnergy(), result.totalCycles(), params);
    pw.addScalar("sbWatts", "SB power (static + dynamic)") =
        breakdown.sbStatic + breakdown.sbDynamic;
    pw.addScalar("nmWatts", "NM power (static + dynamic)") =
        breakdown.nmStatic + breakdown.nmDynamic;
    pw.addScalar("logicWatts", "logic power (static + dynamic)") =
        breakdown.logicStatic + breakdown.logicDynamic;
    pw.addScalar("sramWatts", "SRAM power (static + dynamic)") =
        breakdown.sramStatic + breakdown.sramDynamic;
    pw.addScalar("totalWatts", "total average power") = breakdown.total();
    pw.addScalar("seconds", "execution time") = metrics.seconds;
    pw.addScalar("joules", "energy") = metrics.joules;
    pw.addScalar("edp", "power x delay (paper's EDP arithmetic)") =
        metrics.edp;
    pw.addScalar("ed2p", "power x delay^2") = metrics.ed2p;

    auto &layers = root->addGroup("layers");
    int index = 0;
    for (const dadiannao::LayerResult &layer : result.layers) {
        auto &g = layers.addGroup(layerStatKey(index++, layer.name));
        g.addCounter("cycles", "layer cycles") += layer.cycles;
        g.addCounter("startCycle",
                     "layer's first cycle on the run timeline") +=
            layer.startCycle;
        fillActivity(g.addGroup("activity"), layer.activity);
        fillEnergy(g.addGroup("energy"), layer.energy);
        fillMicro(g.addGroup("micro"), layer.micro, result.memModelled);
        if (result.memModelled) {
            fillMemory(g.addGroup("memory"), layer.mem, layer.micro);
            g.addFormula("memoryBound",
                         "1 when over half the layer's lane-cycles "
                         "wait on the memory hierarchy",
                         [bound = isMemoryBound(layer.micro)] {
                             return bound ? 1.0 : 0.0;
                         });
        }
    }
    return root;
}

std::vector<ArchTimeline>
simulateTimelines(const ExperimentConfig &cfg, const nn::Network &net,
                  const std::vector<const arch::ArchModel *> &archs,
                  const nn::PruneConfig *prune, timing::TraceCache &cache)
{
    cache.warm(net, {cfg.seed}, nullptr);
    std::vector<ArchTimeline> timelines(archs.size());
    sim::parallelMapReduce(
        archs.size(),
        [&](std::size_t a) {
            timing::RunOptions opts;
            opts.imageSeed = cfg.seed;
            opts.prune = prune;
            opts.cache = &cache;
            opts.weightSparsity = cfg.weightSparsity;
            opts.memKind = cfg.memKind;
            return archs[a]->simulateNetwork(cfg.node, net, opts);
        },
        [&](std::size_t a, dadiannao::NetworkResult &&result) {
            timelines[a] = {archs[a], std::move(result)};
        });
    return timelines;
}

RunReport
buildRunReport(const ExperimentConfig &cfg, const nn::Network &net,
               const std::vector<const arch::ArchModel *> &archs,
               const nn::PruneConfig *prune)
{
    CNV_ASSERT(!archs.empty(), "need at least one architecture");
    RunReport report;
    report.manifest = makeManifest("cnvsim");
    report.manifest.network = net.name();
    report.manifest.nodeConfig = cfg.node.describe();
    report.manifest.images = cfg.images;
    report.manifest.seed = cfg.seed;
    report.manifest.weightSparsity = cfg.weightSparsity;
    report.manifest.mem = mem::kindName(cfg.memKind);

    // The timelines and the aggregate share one cache, so the
    // report's counters reflect the whole run's reuse.
    timing::TraceCache cache;
    report.timelines = simulateTimelines(cfg, net, archs, prune, cache);
    report.aggregate = evaluateNetworkArchs(cfg, net, archs, prune, &cache);
    report.cacheStats = cache.stats();
    return report;
}

RunReport
buildRunReport(const ExperimentConfig &cfg, const nn::Network &net,
               const nn::PruneConfig *prune)
{
    return buildRunReport(cfg, net, arch::canonicalPair(), prune);
}

void
writeReportJson(const RunReport &report, std::ostream &os)
{
    sim::JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("cnv-report-v1");
    w.key("manifest");
    report.manifest.writeJson(w);

    w.key("architectures").beginObject();
    for (const ArchTimeline &t : report.timelines) {
        const auto tree = buildStats(t.result, *t.model);
        w.key(tree->name());
        sim::exportJson(*tree, w);
    }
    w.endObject();

    w.key("summary").beginObject();
    w.key("images").value(report.aggregate.images);
    w.key("archs").beginObject();
    for (const ArchAggregate &a : report.aggregate.archs) {
        w.key(a.id()).beginObject();
        w.key("cycles").value(a.cycles);
        w.endObject();
    }
    w.endObject();
    w.key("cache").beginObject();
    w.key("tensorHits").value(report.cacheStats.tensorHits);
    w.key("tensorMisses").value(report.cacheStats.tensorMisses);
    w.key("countMapHits").value(report.cacheStats.countMapHits);
    w.key("countMapMisses").value(report.cacheStats.countMapMisses);
    w.endObject();
    // Memory-hierarchy summary: aggregate counters over all images
    // plus the single-image timeline's memory-bound vs compute-bound
    // layer split. Only present on `--mem banked` runs.
    bool anyMem = false;
    for (const ArchAggregate &a : report.aggregate.archs)
        anyMem = anyMem || a.memModelled;
    if (anyMem) {
        w.key("memory").beginObject();
        for (const ArchAggregate &a : report.aggregate.archs) {
            w.key(a.id()).beginObject();
            w.key("nmAccesses").value(a.mem.nmAccesses);
            w.key("nmConflictCycles").value(a.mem.nmConflictCycles);
            w.key("gbHits").value(a.mem.gbHits);
            w.key("gbMisses").value(a.mem.gbMisses);
            w.key("gbEvictions").value(a.mem.gbEvictions);
            w.key("dramBytes").value(a.mem.dramBytes);
            w.key("dramCycles").value(a.mem.dramCycles);
            std::uint64_t memoryBound = 0, computeBound = 0;
            for (const ArchTimeline &t : report.timelines) {
                if (t.model != a.model)
                    continue;
                for (const dadiannao::LayerResult &l : t.result.layers)
                    (isMemoryBound(l.micro) ? memoryBound
                                            : computeBound)++;
            }
            w.key("memoryBoundLayers").value(memoryBound);
            w.key("computeBoundLayers").value(computeBound);
            w.endObject();
        }
        w.endObject();
    }
    // Legacy two-architecture trio: kept whenever the canonical pair
    // is part of the selection so existing consumers keep parsing.
    const ArchAggregate *base = report.aggregate.findArch("dadiannao");
    const ArchAggregate *cnvAgg = report.aggregate.findArch("cnv");
    if (base != nullptr && cnvAgg != nullptr) {
        w.key("baselineCycles").value(base->cycles);
        w.key("cnvCycles").value(cnvAgg->cycles);
        w.key("speedup").value(report.aggregate.speedup());
    }
    w.endObject();

    // Host-side telemetry (wall-clock only, simulated results are
    // unaffected); determinism checks strip this block before
    // comparing reports byte for byte.
    w.key("hostProfile");
    sim::writeHostProfile(sim::metrics().snapshot(), w);

    w.endObject();
    os << '\n';
    CNV_ASSERT(w.complete(), "report document left unbalanced");
}

void
writeReportCsv(const RunReport &report, std::ostream &os)
{
    os << "path,kind,value,description\n";
    auto manifestRow = [&os](const char *field, const std::string &v,
                             const char *desc) {
        os << "manifest." << field << ",manifest," << sim::csvQuote(v)
           << ',' << sim::csvQuote(desc) << '\n';
    };
    const RunManifest &m = report.manifest;
    manifestRow("tool", m.tool, "binary that produced the report");
    manifestRow("gitSha", m.gitSha, "configure-time git commit");
    manifestRow("version", m.version, "project version");
    manifestRow("network", m.network, "network evaluated");
    manifestRow("nodeConfig", m.nodeConfig, "node configuration");
    manifestRow("images", std::to_string(m.images), "images evaluated");
    manifestRow("seed", std::to_string(m.seed), "root seed");
    manifestRow("jobs", std::to_string(m.jobs), "worker-pool job count");
    manifestRow("weightSparsity", sim::strfmt("{}", m.weightSparsity),
                "Cnv2 weight-sparsity knob");
    if (m.mem != "ideal")
        manifestRow("mem", m.mem, "memory-hierarchy model");
    manifestRow("wallSeconds", sim::strfmt("{}", m.wallSeconds),
                "wall-clock duration of the run");

    for (const ArchTimeline &t : report.timelines)
        sim::exportCsv(*buildStats(t.result, *t.model), os, "",
                       /*header=*/false);

    os << "summary.images,summary," << report.aggregate.images
       << ",images aggregated\n";
    for (const ArchAggregate &a : report.aggregate.archs)
        os << "summary.archs." << a.id() << ".cycles,summary," << a.cycles
           << ',' << sim::csvQuote(a.id() + " cycles summed over images")
           << '\n';
    const timing::TraceCache::Stats &cs = report.cacheStats;
    os << "summary.cache.tensorHits,summary," << cs.tensorHits
       << ",trace-cache tensor lookups served from cache\n";
    os << "summary.cache.tensorMisses,summary," << cs.tensorMisses
       << ",trace-cache tensors synthesized or loaded\n";
    os << "summary.cache.countMapHits,summary," << cs.countMapHits
       << ",trace-cache count-map lookups served from cache\n";
    os << "summary.cache.countMapMisses,summary," << cs.countMapMisses
       << ",trace-cache count maps computed\n";
    for (const ArchAggregate &a : report.aggregate.archs) {
        if (!a.memModelled)
            continue;
        const std::string p = "summary.memory." + a.id();
        os << p << ".nmAccesses,summary," << a.mem.nmAccesses
           << ",brick-granular NM reads issued\n";
        os << p << ".nmConflictCycles,summary," << a.mem.nmConflictCycles
           << ",extra cycles serialising on NM bank conflicts\n";
        os << p << ".gbHits,summary," << a.mem.gbHits
           << ",global-buffer hits\n";
        os << p << ".gbMisses,summary," << a.mem.gbMisses
           << ",global-buffer misses\n";
        os << p << ".gbEvictions,summary," << a.mem.gbEvictions
           << ",global-buffer capacity evictions\n";
        os << p << ".dramBytes,summary," << a.mem.dramBytes
           << ",off-chip bytes transferred\n";
        os << p << ".dramCycles,summary," << a.mem.dramCycles
           << ",DRAM channel busy cycles\n";
    }
    const ArchAggregate *base = report.aggregate.findArch("dadiannao");
    const ArchAggregate *cnvAgg = report.aggregate.findArch("cnv");
    if (base != nullptr && cnvAgg != nullptr) {
        os << "summary.baselineCycles,summary," << base->cycles
           << ",baseline cycles summed over images\n";
        os << "summary.cnvCycles,summary," << cnvAgg->cycles
           << ",CNV cycles summed over images\n";
        os << "summary.speedup,summary,"
           << sim::strfmt("{}", report.aggregate.speedup())
           << ",baseline/CNV cycle ratio\n";
    }
}

} // namespace cnv::driver
