/**
 * @file
 * Figure 9: speedup of CNV over the DaDianNao baseline, with only
 * zero-valued neurons skipped (CNV) and with the lossless dynamic
 * pruning thresholds of Table II also applied (CNV + Pruning).
 * Also reports cnv2 (Cnvlutin2 ineffectual-weight skipping, not in
 * the original figure) alongside, so the artifact captures the full
 * three-architecture comparison.
 */

#include <fstream>
#include <optional>

#include "arch/registry.h"
#include "common.h"
#include "driver/trace_pipeline.h"
#include "mem/memory_model.h"
#include "pruning/explore.h"
#include "timing/network_model.h"
#include "timing/trace_cache.h"

using namespace cnv;

namespace {

/**
 * Per-network Figure 9 bars. The text states only google (1.24,
 * minimum), cnnS (1.55, maximum) and the 1.37 average; the other
 * bars are read off the figure approximately.
 */
double
paperCnv(nn::zoo::NetId id)
{
    switch (id) {
      case nn::zoo::NetId::Alex: return 1.35;
      case nn::zoo::NetId::Google: return 1.24;
      case nn::zoo::NetId::Nin: return 1.28;
      case nn::zoo::NetId::Vgg19: return 1.40;
      case nn::zoo::NetId::CnnM: return 1.40;
      case nn::zoo::NetId::CnnS: return 1.55;
    }
    return 1.37;
}

double
paperCnvPruned(nn::zoo::NetId id)
{
    // Table II's "Speedup" column.
    switch (id) {
      case nn::zoo::NetId::Alex: return 1.53;
      case nn::zoo::NetId::Google: return 1.37;
      case nn::zoo::NetId::Nin: return 1.39;
      case nn::zoo::NetId::Vgg19: return 1.57;
      case nn::zoo::NetId::CnnM: return 1.56;
      case nn::zoo::NetId::CnnS: return 1.75;
    }
    return 1.52;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::parseArgs(argc, argv,
                                       {"--images", "--seed", "--csv",
                                        "--quick", "--json", "--trace-out",
                                        "--jobs", "--mem"},
                                       2);

    const driver::ExperimentConfig &cfg = opts.experiment;
    std::cout << "node: " << cfg.node.describe() << '\n';

    pruning::SearchOptions search;
    search.accuracyImages = opts.quick ? 4 : 10;
    search.timingImages = 1;
    search.seed = cfg.seed + 7;

    // Host phases (hostProfile.phases): the networks are built,
    // evaluated, then reported; emplace() closes the previous one.
    std::optional<sim::ScopedPhase> phase;
    phase.emplace("build");
    const bench::Zoo zoo(cfg.seed);
    const auto ids = nn::zoo::allNetworks();

    phase.emplace("evaluate");
    // One trace cache across the main sweep and the banked
    // comparison runs: synthesis keys are memory-model-independent,
    // so the extra runs hit instead of resynthesizing.
    timing::TraceCache cache;
    const auto plain = driver::evaluateNetworks(
        cfg, zoo.nets, arch::builtin().select("dadiannao,cnv,cnv2"),
        nullptr, &cache);
    // Banked-vs-ideal CNV comparison: one extra CNV-only sweep with
    // the memory model the main sweep did not use, so the artifact
    // always carries both cycle counts regardless of the --mem
    // selection.
    const bool mainBanked = cfg.memKind == mem::Kind::Banked;
    driver::ExperimentConfig altCfg = cfg;
    altCfg.memKind = mainBanked ? mem::Kind::Ideal : mem::Kind::Banked;
    const auto alt = driver::evaluateNetworks(
        altCfg, zoo.nets, arch::builtin().select("cnv"), nullptr, &cache);

    sim::TraceSink trace;
    if (!opts.traceOut.empty()) {
        // One timeline per (network, architecture) pair, on the
        // manifest's root seed like the driver reports.
        timing::RunOptions ropts;
        ropts.imageSeed = cfg.seed;
        ropts.memKind = cfg.memKind;
        std::uint32_t tracePid = 1;
        for (const nn::Network *net : zoo.nets)
            for (const char *archId : {"cnv", "cnv2", "dadiannao"}) {
                const auto &model = arch::builtin().get(archId);
                driver::appendNetworkTrace(
                    trace, model.simulateNetwork(cfg.node, *net, ropts),
                    tracePid++,
                    sim::strfmt("{} ({})", archId, net->name()));
            }
    }

    // CNV+Pruning: each network's own lossless thresholds, so one
    // evaluation per network.
    std::vector<driver::NetworkReport> pruned;
    if (!opts.quick)
        for (std::size_t n = 0; n < ids.size(); ++n) {
            auto accNet =
                nn::zoo::build(ids[n], cfg.seed, cfg.accuracyScale);
            accNet->calibrate();
            const auto point = pruning::searchLossless(
                cfg.node, *zoo.nets[n], *accNet, search);
            pruned.push_back(driver::evaluateNetworkArchs(
                cfg, *zoo.nets[n], arch::canonicalPair(), &point.config));
        }

    phase.emplace("report");
    sim::Table t({"network", "CNV", "paper CNV (approx)", "CNV2",
                  "CNV banked ovh.", "CNV+Pruning",
                  "paper CNV+Pruning"});
    sim::StatGroup fig("fig09");
    double sumCnv2 = 0.0, sumBankedOvh = 0.0;
    for (std::size_t n = 0; n < ids.size(); ++n) {
        const nn::zoo::NetId id = ids[n];
        const driver::NetworkReport &r = plain[n];
        const double cnv2Speedup = r.speedupOf("dadiannao", "cnv2");
        const std::uint64_t cnvIdealCycles =
            (mainBanked ? alt[n] : r).arch("cnv").cycles;
        const std::uint64_t cnvBankedCycles =
            (mainBanked ? r : alt[n]).arch("cnv").cycles;
        const double bankedOverhead =
            static_cast<double>(cnvBankedCycles) /
            static_cast<double>(cnvIdealCycles);
        sumCnv2 += cnv2Speedup;
        sumBankedOvh += bankedOverhead;
        t.addRow({r.name, sim::Table::num(r.speedup()),
                  sim::Table::num(paperCnv(id)),
                  sim::Table::num(cnv2Speedup),
                  sim::Table::num(bankedOverhead),
                  opts.quick ? "(skipped)"
                             : sim::Table::num(pruned[n].speedup()),
                  sim::Table::num(paperCnvPruned(id))});

        auto &g = fig.addGroup(r.name);
        g.addCounter("baselineCycles", "baseline cycles over images") +=
            r.arch("dadiannao").cycles;
        g.addCounter("cnvCycles", "CNV cycles over images") +=
            r.arch("cnv").cycles;
        g.addCounter("cnv2Cycles", "Cnvlutin2 cycles over images") +=
            r.arch("cnv2").cycles;
        g.addCounter("cnvBankedCycles",
                     "CNV cycles over images under --mem banked") +=
            cnvBankedCycles;
        g.addScalar("bankedOverhead",
                    "CNV banked-over-ideal cycle ratio") = bankedOverhead;
        g.addScalar("speedup", "measured CNV speedup") = r.speedup();
        g.addScalar("cnv2Speedup", "measured Cnvlutin2 speedup") =
            cnv2Speedup;
        g.addScalar("paperSpeedup", "paper's Figure 9 bar (approx)") =
            paperCnv(id);
        if (!opts.quick)
            g.addScalar("prunedSpeedup", "measured CNV+Pruning speedup") =
                pruned[n].speedup();
        g.addScalar("paperPrunedSpeedup", "paper's Table II speedup") =
            paperCnvPruned(id);
    }
    const auto count = static_cast<double>(plain.size());
    const double average = driver::meanSpeedup(plain);
    t.addRow({"average", sim::Table::num(average), "1.37",
              sim::Table::num(sumCnv2 / count),
              sim::Table::num(sumBankedOvh / count),
              opts.quick ? "(skipped)"
                         : sim::Table::num(driver::meanSpeedup(pruned)),
              "1.52"});
    fig.addScalar("averageSpeedup", "arithmetic mean of CNV speedups") =
        average;
    fig.addScalar("averageCnv2Speedup",
                  "arithmetic mean of Cnvlutin2 speedups") =
        sumCnv2 / count;
    fig.addScalar("averageBankedOverhead",
                  "arithmetic mean of CNV banked-over-ideal ratios") =
        sumBankedOvh / count;
    if (!opts.quick)
        fig.addScalar("averagePrunedSpeedup",
                      "arithmetic mean of CNV+Pruning speedups") =
            driver::meanSpeedup(pruned);
    bench::emit(opts, "Figure 9: speedup of CNV over the baseline", t);
    phase.reset();
    bench::writeFigureArtifact(opts, "fig09_speedup", fig);
    if (!opts.traceOut.empty()) {
        std::ofstream os(opts.traceOut);
        if (!os) {
            std::cerr << "cannot open trace file " << opts.traceOut
                      << '\n';
            return 1;
        }
        trace.writeJson(os, {sim::TraceArg("tool", "bench_fig09_speedup"),
                             sim::TraceArg("seed", cfg.seed)});
        std::cout << "wrote " << trace.events().size()
                  << " trace events to " << opts.traceOut << '\n';
    }
    return 0;
}
