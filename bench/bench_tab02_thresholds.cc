/**
 * @file
 * Table II: the largest per-layer pruning thresholds that lose no
 * accuracy, found by greedy exploration (per layer; per inception
 * module / auxiliary head for google, as in the paper), and the
 * resulting speedup over the baseline.
 */

#include <sstream>

#include "common.h"
#include "pruning/explore.h"

using namespace cnv;

int
main(int argc, char **argv)
{
    const auto opts = bench::parseArgs(
        argc, argv,
        {"--images", "--seed", "--csv", "--quick", "--jobs", "--mem"});

    const driver::ExperimentConfig &cfg = opts.experiment;

    pruning::SearchOptions search;
    search.accuracyImages = opts.quick ? 4 : 10;
    search.timingImages = 1;
    search.seed = cfg.seed + 7;

    sim::Table t({"network", "thresholds per layer (found)", "speedup",
                  "paper speedup"});
    const char *paper[] = {"1.53", "1.37", "1.39", "1.57", "1.56", "1.75"};
    std::vector<driver::NetworkReport> reports;
    int i = 0;
    for (auto id : nn::zoo::allNetworks()) {
        const auto net = nn::zoo::build(id, cfg.seed);
        auto accNet = nn::zoo::build(id, cfg.seed, cfg.accuracyScale);
        accNet->calibrate();

        const auto point =
            pruning::searchLossless(cfg.node, *net, *accNet, search);
        const auto &report = reports.emplace_back(
            driver::evaluateNetworkArchs(cfg, *net, arch::canonicalPair(),
                                         &point.config));

        // Compact the per-layer thresholds: one value per search
        // group (matches the paper's per-module listing for google).
        std::ostringstream list;
        const auto groups = pruning::thresholdGroups(*net);
        for (std::size_t g = 0; g < groups.size(); ++g) {
            if (g)
                list << ',';
            list << point.config.thresholds[groups[g].front()];
        }

        t.addRow({nn::zoo::netName(id), list.str(),
                  sim::Table::num(report.speedup()), paper[i++]});
    }
    t.addRow({"average", "", sim::Table::num(driver::meanSpeedup(reports)),
              "1.52"});
    bench::emit(opts, "Table II: lossless ineffectual-neuron thresholds",
                t);
    return 0;
}
