/**
 * @file
 * Figure 13: EDP and ED^2P improvement of CNV over DaDianNao per
 * network. Following the paper's arithmetic, EDP is computed as
 * average-power x delay and ED^2P as average-power x delay^2 (see
 * power/model.h and EXPERIMENTS.md).
 */

#include "common.h"
#include "power/model.h"

using namespace cnv;

int
main(int argc, char **argv)
{
    const auto opts = bench::parseArgs(
        argc, argv, {"--images", "--seed", "--csv", "--jobs", "--mem"});

    const driver::ExperimentConfig &cfg = opts.experiment;
    std::cout << "node: " << cfg.node.describe() << '\n';

    sim::Table t({"network", "speedup", "EDP improvement",
                  "ED^2P improvement"});
    double sumEdp = 0.0, sumEd2p = 0.0;
    const bench::Zoo zoo(cfg.seed);
    const auto reports =
        driver::evaluateNetworks(cfg, zoo.nets, arch::canonicalPair());
    for (const auto &r : reports) {
        const auto &base = r.arch("dadiannao");
        const auto &cnvAgg = r.arch("cnv");
        const auto mb = base.model->metrics(base.energy, base.cycles);
        const auto mc =
            cnvAgg.model->metrics(cnvAgg.energy, cnvAgg.cycles);
        const double edp = mb.edp / mc.edp;
        const double ed2p = mb.ed2p / mc.ed2p;
        sumEdp += edp;
        sumEd2p += ed2p;
        t.addRow({r.name, sim::Table::num(r.speedup()),
                  sim::Table::num(edp), sim::Table::num(ed2p)});
    }
    const auto count = static_cast<double>(reports.size());
    t.addRow({"average", "", sim::Table::num(sumEdp / count),
              sim::Table::num(sumEd2p / count)});
    t.addRow({"paper average", "1.37", "1.47", "2.01"});
    bench::emit(opts,
                "Figure 13: EDP and ED^2P improvement of CNV over "
                "DaDianNao",
                t);
    return 0;
}
