/**
 * @file
 * Figure 10: breakdown of execution activity on the baseline (b)
 * and CNV (c), normalised to the baseline. One event per
 * (unit, neuron lane, cycle), each in exactly one category:
 * other / conv1 / non-zero / zero / stall.
 */

#include "common.h"

using namespace cnv;

namespace {

std::vector<std::string>
breakdownRow(const std::string &label, const dadiannao::Activity &a,
             double norm)
{
    return {label,
            sim::Table::pct(a.other / norm),
            sim::Table::pct(a.conv1 / norm),
            sim::Table::pct(a.nonZero / norm),
            sim::Table::pct(a.zero / norm),
            sim::Table::pct(a.stall / norm),
            sim::Table::pct(a.total() / norm)};
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::parseArgs(
        argc, argv,
        {"--images", "--seed", "--csv", "--json", "--jobs", "--mem"}, 2);

    const driver::ExperimentConfig &cfg = opts.experiment;
    std::cout << "node: " << cfg.node.describe() << '\n';

    sim::Table t({"network/arch", "other", "conv1", "non-zero", "zero",
                  "stall", "total (vs. baseline)"});
    sim::StatGroup fig("fig10");
    auto fillActivity = [](sim::StatGroup &g,
                           const dadiannao::Activity &a, double norm) {
        g.addCounter("other", "lane events in non-conv layers") += a.other;
        g.addCounter("conv1", "lane events in the first conv layer") +=
            a.conv1;
        g.addCounter("nonZero", "lane events on non-zero neurons") +=
            a.nonZero;
        g.addCounter("zero", "lane events on zero neurons") += a.zero;
        g.addCounter("stall", "lane events idle on window sync") +=
            a.stall;
        g.addScalar("totalVsBaseline",
                    "total events normalised to the baseline's") =
            static_cast<double>(a.total()) / norm;
    };
    const bench::Zoo zoo(cfg.seed);
    for (const auto &report :
         driver::evaluateNetworks(cfg, zoo.nets, arch::canonicalPair())) {
        const auto &baseAct = report.arch("dadiannao").activity;
        const auto &cnvAct = report.arch("cnv").activity;
        const double norm = static_cast<double>(baseAct.total());
        t.addRow(breakdownRow(report.name + " (b)", baseAct, norm));
        t.addRow(breakdownRow(report.name + " (c)", cnvAct, norm));

        auto &g = fig.addGroup(report.name);
        fillActivity(g.addGroup("baseline"), baseAct, norm);
        fillActivity(g.addGroup("cnv"), cnvAct, norm);
    }
    bench::emit(opts,
                "Figure 10: execution activity breakdown, CNV (c) "
                "normalised to baseline (b)",
                t);
    bench::writeFigureArtifact(opts, "fig10_activity", fig);

    std::cout << "\nPaper observations to compare against: conv layers\n"
                 "(conv1 + zero + non-zero) dominate baseline activity on\n"
                 "every network; the first layer averages ~21% of baseline\n"
                 "activity; CNV converts the zero share into elimination\n"
                 "with only a small stall share left.\n";
    return 0;
}
