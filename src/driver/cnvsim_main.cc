/**
 * @file
 * cnvsim — the command-line front end to the simulator.
 *
 *   list / archs            network inventory / architecture registry
 *   run / power <net>       timing run / power, energy, EDP
 *   prune / validate <net>  lossless thresholds / functional check
 *   zfnaf <net>             per-layer ZFNAf statistics
 *   export-traces <net>     write per-layer traces to --out
 *   trace <net>             cycle-level event trace, stall attribution
 *   reproduce               headline paper-vs-measured table
 *
 * The usage text (`cnvsim` alone) lists the options each command
 * accepts. The report, trace-event, stall and perf schemas are in
 * docs/observability.md.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/registry.h"
#include "driver/driver.h"
#include "driver/options.h"
#include "driver/run_manifest.h"
#include "driver/stats_report.h"
#include "driver/trace_pipeline.h"
#include "nn/trace.h"
#include "ref/cnv_node.h"
#include "ref/dadiannao_node.h"
#include "tensor/serialize.h"
#include "zfnaf/format.h"
#include "nn/zoo/zoo.h"
#include "pruning/explore.h"
#include "sim/error.h"
#include "sim/logging.h"
#include "sim/metrics.h"
#include "sim/parallel.h"
#include "sim/stats_export.h"
#include "sim/table.h"
#include "timing/network_model.h"
#include "timing/trace_cache.h"

namespace {

using namespace cnv;
using driver::CliOptions;

/** Open an output file named on the command line, or fail. */
std::ofstream
openOutput(const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        CNV_FATAL("cannot open output file '{}'", path);
    return os;
}

/** Whether --report-json or --report-csv asked for a run report. */
bool
wantsReport(const CliOptions &opts)
{
    return !opts.reportJson.empty() || !opts.reportCsv.empty();
}

/** Write one run report to the paths requested on the command line. */
void
writeReports(const CliOptions &opts, driver::RunReport report)
{
    report.manifest.wallSeconds = sim::metrics().secondsSinceEnable();
    if (!opts.reportJson.empty()) {
        auto os = openOutput(opts.reportJson);
        driver::writeReportJson(report, os);
        std::cout << "wrote JSON report to " << opts.reportJson << '\n';
    }
    if (!opts.reportCsv.empty()) {
        auto os = openOutput(opts.reportCsv);
        driver::writeReportCsv(report, os);
        std::cout << "wrote CSV report to " << opts.reportCsv << '\n';
    }
}

/**
 * Write the standalone cnv-perf-v1 telemetry artifact requested with
 * --perf-json: the run manifest plus the hostProfile object (same
 * emitter as the report section). Called once, after the command
 * body, so phase timers and cache counters cover the whole run.
 */
void
writePerfJson(const CliOptions &opts)
{
    if (opts.perfJson.empty())
        return;
    std::ofstream os = openOutput(opts.perfJson);
    driver::RunManifest manifest = driver::makeManifest(
        "cnvsim", opts.experiment,
        opts.net.empty() ? "(all zoo networks)" : opts.net);
    manifest.wallSeconds = sim::metrics().secondsSinceEnable();
    sim::JsonWriter w(os);
    w.beginObject();
    w.key("schema");
    w.value("cnv-perf-v1");
    w.key("manifest");
    manifest.writeJson(w);
    w.key("hostProfile");
    sim::writeHostProfile(sim::metrics().snapshot(), w);
    w.endObject();
    w.complete();
    os << '\n';
    std::cout << "wrote perf profile to " << opts.perfJson << '\n';
}

int
cmdList()
{
    sim::Table t({"network", "conv layers", "conv GMACs",
                  "zero-operand target", "input"});
    for (auto id : nn::zoo::allNetworks()) {
        const auto net = nn::zoo::build(id, 1);
        const auto in = net->node(0).outShape;
        t.addRow({nn::zoo::netName(id),
                  std::to_string(net->convLayerCount()),
                  sim::Table::num(net->totalConvMacs() / 1e9),
                  sim::Table::pct(nn::zoo::zeroOperandTarget(id)),
                  sim::strfmt("{}x{}x{}", in.x, in.y, in.z)});
    }
    t.print(std::cout);
    return 0;
}

int
cmdArchs(bool idsOnly)
{
    if (idsOnly) {
        // Machine-readable listing for scripts (the docs-coverage
        // check diffs this against docs/architectures.md sections).
        for (const auto &model : arch::builtin().models())
            std::cout << model->id() << '\n';
        return 0;
    }
    const dadiannao::NodeConfig base;
    sim::Table t({"id", "architecture", "brick", "lanes", "NM banks",
                  "area mm^2"});
    for (const auto &model : arch::builtin().models()) {
        const auto cfg = model->nodeConfig(base);
        t.addRow({model->id(), model->displayName(),
                  std::to_string(cfg.brickSize),
                  std::to_string(cfg.lanes), std::to_string(cfg.nmBanks),
                  sim::Table::num(model->area().total())});
    }
    t.print(std::cout);
    std::cout << "\nselect with `cnvsim run <net> --arch "
                 "dadiannao,cnv,...` (report sections are keyed by "
                 "id).\n";
    return 0;
}

/** The network and the --arch models of a run, in the "build" phase. */
std::pair<std::unique_ptr<nn::Network>, std::vector<const arch::ArchModel *>>
buildRun(nn::zoo::NetId id, const CliOptions &opts)
{
    const sim::ScopedPhase phase("build");
    auto archs = arch::builtin().select(opts.archs);
    return {nn::zoo::build(id, opts.experiment.seed), std::move(archs)};
}

int
cmdRun(nn::zoo::NetId id, const CliOptions &opts)
{
    const driver::ExperimentConfig &cfg = opts.experiment;
    const auto [net, archs] = buildRun(id, opts);
    const auto &ref = *archs.front();

    // Single-image per-layer timelines, one run per selected arch
    // (also reused by --stats and the report below). The cache is
    // shared with the aggregate sweep so each image's trace is
    // synthesized once; simulating the timelines first gives the
    // report the cache counters buildRunReport() would.
    timing::TraceCache cache;
    std::vector<driver::ArchTimeline> timelines;
    if (opts.layers || opts.stats || wantsReport(opts)) {
        const sim::ScopedPhase phase("timing");
        timelines =
            driver::simulateTimelines(cfg, *net, archs, nullptr, cache);
    }

    if (opts.layers) {
        std::vector<std::string> header{"layer"};
        for (const arch::ArchModel *model : archs)
            header.push_back(model->id() + " cycles");
        for (std::size_t a = 1; a < archs.size(); ++a)
            header.push_back(archs[a]->id() + " speedup");
        sim::Table t(header);
        const auto &refLayers = timelines.front().result.layers;
        for (std::size_t i = 0; i < refLayers.size(); ++i) {
            bool allZero = true;
            std::vector<std::string> row{refLayers[i].name};
            for (const driver::ArchTimeline &tl : timelines) {
                const auto &layer = tl.result.layers[i];
                allZero &= layer.cycles == 0;
                row.push_back(sim::Table::intNum(layer.cycles));
            }
            for (std::size_t a = 1; a < timelines.size(); ++a) {
                const auto cycles = timelines[a].result.layers[i].cycles;
                row.push_back(
                    cycles ? sim::Table::num(
                                 static_cast<double>(refLayers[i].cycles) /
                                 static_cast<double>(cycles))
                           : "-");
            }
            if (!allZero)
                t.addRow(row);
        }
        t.print(std::cout);
    }

    driver::NetworkReport report;
    {
        const sim::ScopedPhase phase("timing");
        report =
            driver::evaluateNetworkArchs(cfg, *net, archs, nullptr, &cache);
    }

    const sim::ScopedPhase reportPhase("report");
    std::cout << "\n" << net->name() << " over " << cfg.images
              << " image(s):\n";
    sim::Table t({"architecture", "cycles",
                  "speedup vs " + ref.id()});
    for (const driver::ArchAggregate &a : report.archs)
        t.addRow({a.id(), sim::Table::intNum(a.cycles),
                  a.model == &ref
                      ? "1.00"
                      : sim::Table::num(
                            report.speedupOf(ref.id(), a.id()))});
    t.print(std::cout);

    if (opts.stats)
        for (const driver::ArchTimeline &tl : timelines)
            driver::buildStats(tl.result, *tl.model)->dump(std::cout);

    if (wantsReport(opts))
        writeReports(opts, driver::makeRunReport(cfg, *net,
                                                 std::move(timelines),
                                                 std::move(report),
                                                 cache.stats()));
    return 0;
}

int
cmdPower(nn::zoo::NetId id, const CliOptions &opts)
{
    const driver::ExperimentConfig &cfg = opts.experiment;
    const auto [net, archs] = buildRun(id, opts);
    const auto &ref = *archs.front();
    driver::NetworkReport report;
    {
        const sim::ScopedPhase phase("timing");
        report = driver::evaluateNetworkArchs(cfg, *net, archs);
    }

    const sim::ScopedPhase powerPhase("power");
    std::vector<power::PowerBreakdown> pw;
    std::vector<power::RunMetrics> mx;
    for (const driver::ArchAggregate &a : report.archs) {
        pw.push_back(a.model->power(a.energy, a.cycles));
        mx.push_back(a.model->metrics(a.energy, a.cycles));
    }

    std::vector<std::string> header{"metric"};
    for (const arch::ArchModel *model : archs)
        header.push_back(model->id());
    for (std::size_t a = 1; a < archs.size(); ++a)
        header.push_back(ref.id() + "/" + archs[a]->id());
    sim::Table t(header);
    auto row = [&](const char *name, auto metric) {
        std::vector<std::string> cells{name};
        for (std::size_t a = 0; a < archs.size(); ++a)
            cells.push_back(sim::Table::num(metric(a), 4));
        for (std::size_t a = 1; a < archs.size(); ++a)
            cells.push_back(sim::Table::num(metric(0) / metric(a), 3));
        t.addRow(cells);
    };
    row("average watts",
        [&](std::size_t a) { return pw[a].total(); });
    row("seconds", [&](std::size_t a) { return mx[a].seconds; });
    row("joules", [&](std::size_t a) { return mx[a].joules; });
    row("EDP (P x D)", [&](std::size_t a) { return mx[a].edp; });
    row("ED^2P (P x D^2)", [&](std::size_t a) { return mx[a].ed2p; });
    t.print(std::cout);
    return 0;
}

int
cmdPrune(nn::zoo::NetId id, const CliOptions &opts)
{
    const driver::ExperimentConfig &cfg = opts.experiment;
    const auto fullNet = nn::zoo::build(id, cfg.seed);
    auto accNet = nn::zoo::build(id, cfg.seed, cfg.accuracyScale);
    accNet->calibrate();

    dadiannao::NodeConfig node;
    pruning::SearchOptions search;
    search.accuracyImages = std::max(6, cfg.images * 3);
    search.timingImages = 1;
    search.seed = cfg.seed + 7;
    search.accuracyFloor = opts.floor;

    const auto point =
        pruning::searchLossless(node, *fullNet, *accNet, search);
    std::cout << "thresholds:";
    for (std::int32_t t : point.config.thresholds)
        std::cout << ' ' << t;
    std::cout << "\nspeedup " << sim::Table::num(point.speedup)
              << "x at relative accuracy "
              << sim::Table::pct(point.relativeAccuracy) << '\n';
    return 0;
}

int
cmdZfnaf(nn::zoo::NetId id, const CliOptions &opts)
{
    const auto net = nn::zoo::build(id, opts.experiment.seed);
    sim::Table t({"conv layer", "input", "zero", "avg nz/brick",
                  "empty bricks", "ZFNAf bits vs dense",
                  "offset-only vs dense"});
    for (int nodeId : net->convNodeIds()) {
        const nn::Node &n = net->node(nodeId);
        const auto in =
            nn::synthesizeConvInput(*net, nodeId, opts.experiment.seed + 1);
        const auto enc = zfnaf::encode(in);
        std::size_t empty = 0;
        for (int y = 0; y < in.shape().y; ++y)
            for (int x = 0; x < in.shape().x; ++x)
                for (int b = 0; b < enc.bricksPerColumn(); ++b)
                    empty += enc.nonZeroCount(x, y, b) == 0;
        const double bricks = static_cast<double>(enc.brickCount());
        t.addRow({n.name,
                  sim::strfmt("{}x{}x{}", in.shape().x, in.shape().y,
                              in.shape().z),
                  sim::Table::pct(tensor::zeroFraction(in)),
                  sim::Table::num(enc.totalNonZero() / bricks),
                  sim::Table::pct(empty / bricks),
                  sim::Table::num(
                      static_cast<double>(enc.storageBits()) /
                      (static_cast<double>(in.size()) *
                       zfnaf::kNeuronBits)),
                  sim::Table::num(
                      static_cast<double>(enc.offsetOnlyStorageBits()) /
                      (static_cast<double>(in.size()) *
                       zfnaf::kNeuronBits))});
    }
    t.print(std::cout);
    std::cout << "\nZFNAf keeps brick slots aligned, so the footprint is\n"
                 "always (16+offset bits)/16 = 1.25x the dense array —\n"
                 "the format trades memory for direct brick indexing\n"
                 "(Section IV-B1). The offset-only column is Cnvlutin2's\n"
                 "encoding (values only for non-zero neurons, offsets for\n"
                 "every slot), whose footprint shrinks with sparsity —\n"
                 "see docs/zfnaf.md.\n";
    return 0;
}

int
cmdExportTraces(nn::zoo::NetId id, const CliOptions &opts)
{
    const driver::ExperimentConfig &cfg = opts.experiment;
    const auto net = nn::zoo::build(id, cfg.seed);
    std::filesystem::create_directories(opts.out);
    const timing::DirectoryTraceProvider provider(opts.out);
    int written = 0;
    for (int i = 0; i < cfg.images; ++i) {
        const std::uint64_t seed = cfg.seed + i;
        for (int nodeId : net->convNodeIds()) {
            const auto in = nn::synthesizeConvInput(*net, nodeId, seed);
            tensor::saveTensorFile(provider.pathFor(*net, nodeId, seed),
                                   in);
            ++written;
        }
    }
    std::cout << "wrote " << written << " layer traces to " << opts.out
              << "; rerun timing against them by constructing a\n"
                 "timing::DirectoryTraceProvider (real framework traces\n"
                 "in the same format replace the synthetic generator).\n";
    return 0;
}

int
cmdTrace(nn::zoo::NetId id, const CliOptions &opts)
{
    const driver::ExperimentConfig &cfg = opts.experiment;
    const auto [net, archs] = buildRun(id, opts);
    timing::TraceCache cache;
    const std::vector<driver::ArchTimeline> timelines =
        driver::simulateTimelines(cfg, *net, archs, nullptr, cache);

    sim::TraceSink sink(opts.maxEvents);
    int pid = 1;
    for (const driver::ArchTimeline &tl : timelines)
        driver::appendNetworkTrace(
            sink, tl.result, pid++,
            sim::strfmt("{} ({})", tl.model->id(), net->name()));

    // The attribution must account for every idle lane-cycle the
    // models reported — a gap means a producer forgot its reason.
    std::vector<dadiannao::StallBreakdown> stalls;
    for (const driver::ArchTimeline &tl : timelines) {
        const auto micro = tl.result.totalMicro();
        CNV_ASSERT(micro.stalls.total() == micro.laneIdleCycles,
                   "{} stall breakdown ({}) != idle lane-cycles ({})",
                   tl.result.architecture, micro.stalls.total(),
                   micro.laneIdleCycles);
        stalls.push_back(micro.stalls);
    }

    if (!opts.traceOut.empty()) {
        auto os = openOutput(opts.traceOut);
        sink.writeJson(os, {sim::TraceArg("network", net->name()),
                            sim::TraceArg("seed", cfg.seed),
                            sim::TraceArg("tool", "cnvsim trace")});
        std::cout << "wrote " << sink.events().size()
                  << " trace events to " << opts.traceOut;
        if (sink.droppedEvents() > 0)
            std::cout << " (" << sink.droppedEvents()
                      << " dropped at the --max-events cap)";
        std::cout << "\nload it in Perfetto (https://ui.perfetto.dev) or "
                     "chrome://tracing; 1 trace us = 1 cycle\n";
    }
    if (!opts.stallCsv.empty()) {
        auto os = openOutput(opts.stallCsv);
        bool header = true;
        for (const driver::ArchTimeline &tl : timelines) {
            driver::writeStallCsv(os, tl.result, tl.result.architecture,
                                  header);
            header = false;
        }
        std::cout << "wrote stall breakdown to " << opts.stallCsv << '\n';
    }

    // Per-reason summary, all selected architectures side by side.
    std::vector<std::string> header{"stall reason"};
    for (const driver::ArchTimeline &tl : timelines)
        header.push_back(tl.model->id() + " lane-cycles");
    sim::Table t(header);
    for (const dadiannao::StallReasonInfo &info : dadiannao::kStallReasons) {
        std::vector<std::string> row{info.name};
        for (const dadiannao::StallBreakdown &s : stalls)
            row.push_back(sim::Table::intNum(s[info.reason]));
        t.addRow(row);
    }
    std::vector<std::string> totals{"total idle"};
    for (const dadiannao::StallBreakdown &s : stalls)
        totals.push_back(sim::Table::intNum(s.total()));
    t.addRow(totals);
    t.print(std::cout);

    if (opts.stats)
        for (const driver::ArchTimeline &tl : timelines)
            driver::buildStats(tl.result, *tl.model)->dump(std::cout);
    return 0;
}

int
cmdReproduce(const CliOptions &opts)
{
    // The headline numbers of EXPERIMENTS.md in one run: Figure 1,
    // Figure 9 (zero skipping only), Figure 11 and Figure 13.
    const driver::ExperimentConfig &cfg = opts.experiment;
    std::cout << "node: " << cfg.node.describe() << "\n\n";

    sim::Table t({"network", "zero operands", "CNV speedup",
                  "EDP gain", "ED^2P gain"});
    double zf = 0, sp = 0, edp = 0, ed2p = 0;
    for (auto id : nn::zoo::allNetworks()) {
        const auto net = nn::zoo::build(id, cfg.seed);
        const double zeroFrac =
            nn::zeroOperandFraction(*net, cfg.seed + 100);
        const auto r = driver::evaluateNetwork(cfg, *net);
        const driver::ArchAggregate &base = r.arch("dadiannao");
        const driver::ArchAggregate &cnvAgg = r.arch("cnv");
        const auto mb = base.model->metrics(base.energy, base.cycles);
        const auto mc =
            cnvAgg.model->metrics(cnvAgg.energy, cnvAgg.cycles);
        zf += zeroFrac;
        sp += r.speedup();
        edp += mb.edp / mc.edp;
        ed2p += mb.ed2p / mc.ed2p;
        t.addRow({nn::zoo::netName(id), sim::Table::pct(zeroFrac),
                  sim::Table::num(r.speedup()),
                  sim::Table::num(mb.edp / mc.edp),
                  sim::Table::num(mb.ed2p / mc.ed2p)});
    }
    t.addRow({"average", sim::Table::pct(zf / 6), sim::Table::num(sp / 6),
              sim::Table::num(edp / 6), sim::Table::num(ed2p / 6)});
    t.addRow({"paper", "44.0%", "1.37", "1.47", "2.01"});
    t.print(std::cout);

    const auto &reg = arch::builtin();
    const auto baseArea = reg.get("dadiannao").area();
    const auto cnvArea = reg.get("cnv").area();
    std::cout << "\narea overhead: "
              << sim::Table::pct(cnvArea.total() / baseArea.total() - 1.0)
              << " (paper: 4.49%)\n";
    return 0;
}

int
cmdValidate(nn::zoo::NetId id, const CliOptions &opts)
{
    const driver::ExperimentConfig &cfg = opts.experiment;
    auto net = nn::zoo::build(id, cfg.seed, cfg.accuracyScale);
    net->calibrate();
    const auto image = nn::synthesizeImage(net->node(0).outShape,
                                           cfg.seed + 1);

    const dadiannao::NodeConfig node;
    ref::BaselineNodeModel baseline{node};
    ref::CnvNodeModel cnv{node};
    const auto b = baseline.run(*net, image);
    const auto c = cnv.run(*net, image);
    const auto golden = net->forward(image);

    const bool ok = b.final == c.final && b.final == golden.final;
    std::cout << nn::zoo::netName(id) << " at 1/" << cfg.accuracyScale
              << " scale: baseline/CNV/golden outputs "
              << (ok ? "bit-identical" : "MISMATCH") << "; top-1 "
              << b.top1 << "; cycles " << b.timing.totalCycles() << " vs "
              << c.timing.totalCycles() << '\n';
    return ok ? 0 : 1;
}

/** Run the command `opts` names (parseCli() checked it exists). */
int
runCommand(const CliOptions &opts)
{
    if (opts.command == "list")
        return cmdList();
    if (opts.command == "archs")
        return cmdArchs(opts.ids);
    if (opts.command == "reproduce")
        return cmdReproduce(opts);
    using NetCommand = int (*)(nn::zoo::NetId, const CliOptions &);
    static const std::map<std::string, NetCommand> netCommands = {
        {"run", cmdRun},     {"power", cmdPower},
        {"prune", cmdPrune}, {"validate", cmdValidate},
        {"zfnaf", cmdZfnaf}, {"export-traces", cmdExportTraces},
        {"trace", cmdTrace}};
    return netCommands.at(opts.command)(nn::zoo::netFromName(opts.net),
                                        opts);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    // Telemetry is on for the whole process: every phase timer, pool
    // lane and cache counter below records against this epoch.
    sim::metrics().setEnabled(true);

    try {
        const CliOptions opts = driver::parseCli(args);
        if (opts.jobs > 0)
            sim::setJobCount(opts.jobs);
        sim::metrics().configureProgress(opts.progress);
        const int rc = runCommand(opts);
        writePerfJson(opts);
        return rc;
    } catch (const driver::UsageError &e) {
        std::cerr << "cnvsim: " << e.what() << '\n';
        if (e.showUsage())
            std::cerr << driver::cliUsage();
        return 2;
    } catch (const sim::FatalError &e) {
        std::cerr << e.what() << '\n';
        return 1;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
