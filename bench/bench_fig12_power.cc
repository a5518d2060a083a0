/**
 * @file
 * Figure 12: average power breakdown (static / dynamic / overall,
 * each split across NM, SB, logic, SRAM), normalised to the
 * baseline total, averaged over the six networks. Activity comes
 * from full network simulations; SB reads are genuinely suppressed
 * while CNV subunits stall, so the SB dynamic saving is a measured
 * result.
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

    power::PowerBreakdown baseAvg, cnvAvg;
    auto accumulate = [](power::PowerBreakdown &into,
                         const power::PowerBreakdown &p, double w) {
        into.sbStatic += p.sbStatic * w;
        into.sbDynamic += p.sbDynamic * w;
        into.nmStatic += p.nmStatic * w;
        into.nmDynamic += p.nmDynamic * w;
        into.logicStatic += p.logicStatic * w;
        into.logicDynamic += p.logicDynamic * w;
        into.sramStatic += p.sramStatic * w;
        into.sramDynamic += p.sramDynamic * w;
    };

    const bench::Zoo zoo(cfg.seed);
    const auto reports =
        driver::evaluateNetworks(cfg, zoo.nets, arch::canonicalPair());
    const double weight = 1.0 / static_cast<double>(reports.size());
    for (const auto &r : reports) {
        const auto &base = r.arch("dadiannao");
        const auto &cnvAgg = r.arch("cnv");
        accumulate(baseAvg, base.model->power(base.energy, base.cycles),
                   weight);
        accumulate(cnvAvg,
                   cnvAgg.model->power(cnvAgg.energy, cnvAgg.cycles),
                   weight);
    }

    const double norm = baseAvg.total();
    sim::Table t({"arch", "kind", "NM", "SB", "logic", "SRAM", "total"});
    auto row = [&](const char *arch, const char *kind, double nm, double sb,
                   double lg, double sr) {
        t.addRow({arch, kind, sim::Table::pct(nm / norm),
                  sim::Table::pct(sb / norm), sim::Table::pct(lg / norm),
                  sim::Table::pct(sr / norm),
                  sim::Table::pct((nm + sb + lg + sr) / norm)});
    };
    row("baseline", "static", baseAvg.nmStatic, baseAvg.sbStatic,
        baseAvg.logicStatic, baseAvg.sramStatic);
    row("baseline", "dynamic", baseAvg.nmDynamic, baseAvg.sbDynamic,
        baseAvg.logicDynamic, baseAvg.sramDynamic);
    row("baseline", "overall", baseAvg.nmStatic + baseAvg.nmDynamic,
        baseAvg.sbStatic + baseAvg.sbDynamic,
        baseAvg.logicStatic + baseAvg.logicDynamic,
        baseAvg.sramStatic + baseAvg.sramDynamic);
    row("CNV", "static", cnvAvg.nmStatic, cnvAvg.sbStatic,
        cnvAvg.logicStatic, cnvAvg.sramStatic);
    row("CNV", "dynamic", cnvAvg.nmDynamic, cnvAvg.sbDynamic,
        cnvAvg.logicDynamic, cnvAvg.sramDynamic);
    row("CNV", "overall", cnvAvg.nmStatic + cnvAvg.nmDynamic,
        cnvAvg.sbStatic + cnvAvg.sbDynamic,
        cnvAvg.logicStatic + cnvAvg.logicDynamic,
        cnvAvg.sramStatic + cnvAvg.sramDynamic);
    bench::emit(opts,
                "Figure 12: power breakdown normalised to the baseline",
                t);

    sim::Table headline({"metric", "measured", "paper"});
    headline.addRow(
        {"CNV total power vs baseline",
         sim::Table::num(cnvAvg.total() / norm, 3), "0.93 (7% lower)"});
    headline.addRow(
        {"CNV NM power vs baseline NM",
         sim::Table::num((cnvAvg.nmStatic + cnvAvg.nmDynamic) /
                             (baseAvg.nmStatic + baseAvg.nmDynamic),
                         3),
         "1.53 (+53%)"});
    headline.addRow(
        {"CNV SB dynamic vs baseline SB dynamic",
         sim::Table::num(cnvAvg.sbDynamic / baseAvg.sbDynamic, 3),
         "0.82 (-18%)"});
    headline.addRow({"baseline NM share of total",
                     sim::Table::pct((baseAvg.nmStatic + baseAvg.nmDynamic) /
                                     norm),
                     "22%"});
    bench::emit(opts, "Figure 12 headline comparisons", headline);
    return 0;
}
