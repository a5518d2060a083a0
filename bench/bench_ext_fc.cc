/**
 * @file
 * Extension study (Section VII's "broader applicability", off by
 * default): applying CNV-style zero skipping to fully-connected
 * layers as well. FC inputs are post-ReLU conv/pool outputs with
 * comparable sparsity, and a zero activation's synapse column never
 * needs to leave off-chip memory — so FC layers shrink in both
 * compute and memory time. The effect on whole-network speedup is
 * bounded by the FC share of runtime (small for conv-dominated
 * networks, larger for alex/cnnM/cnnS with their 4096-wide stacks).
 */

#include "common.h"

using namespace cnv;

int
main(int argc, char **argv)
{
    const auto opts = bench::parseArgs(
        argc, argv, {"--images", "--seed", "--csv", "--jobs", "--mem"});

    const bench::Zoo zoo(opts.experiment.seed);
    timing::TraceCache cache;
    auto evaluate = [&](bool fcSkip) {
        driver::ExperimentConfig cfg = opts.experiment;
        cfg.node.cnvSkipsFcLayers = fcSkip;
        return driver::evaluateNetworks(cfg, zoo.nets, arch::canonicalPair(),
                                        nullptr, &cache);
    };
    const auto convOnlyReports = evaluate(false);
    const auto withFcReports = evaluate(true);

    sim::Table t({"network", "CNV (conv only, paper)",
                  "CNV + FC skipping", "delta"});
    double sums[2] = {0, 0};
    for (std::size_t n = 0; n < zoo.nets.size(); ++n) {
        const double convOnly = convOnlyReports[n].speedup();
        const double withFc = withFcReports[n].speedup();
        sums[0] += convOnly;
        sums[1] += withFc;
        t.addRow({zoo.nets[n]->name(), sim::Table::num(convOnly),
                  sim::Table::num(withFc),
                  "+" + sim::Table::num(withFc - convOnly)});
    }
    const auto count = static_cast<double>(zoo.nets.size());
    t.addRow({"average", sim::Table::num(sums[0] / count),
              sim::Table::num(sums[1] / count),
              "+" + sim::Table::num((sums[1] - sums[0]) / count)});
    bench::emit(opts,
                "Extension: CNV zero skipping applied to "
                "fully-connected layers",
                t);
    return 0;
}
