/**
 * @file
 * Figure 11: area breakdown of the baseline and CNV nodes. The
 * component areas are the calibrated model of Section V-C; the CNV
 * scale factors (NM +34%, SRAM +15.8%, total +4.49%) are the
 * paper's synthesis results.
 */

#include "arch/registry.h"
#include "common.h"
#include "power/model.h"

using namespace cnv;

int
main(int argc, char **argv)
{
    const auto opts = bench::parseArgs(argc, argv, {"--csv"});

    const auto base = arch::builtin().get("dadiannao").area();
    const auto cnvA = arch::builtin().get("cnv").area();

    sim::Table t({"component", "baseline (mm^2)", "CNV (mm^2)",
                  "CNV/baseline", "paper"});
    auto row = [&](const char *name, double b, double c,
                   const char *paper) {
        t.addRow({name, sim::Table::num(b), sim::Table::num(c),
                  sim::Table::num(c / b, 3), paper});
    };
    row("SB (filter storage)", base.sb, cnvA.sb, "1.000 (unchanged)");
    row("NM (neuron memory)", base.nm, cnvA.nm, "1.34 (+34%)");
    row("logic (units, dispatcher, encoder)", base.logic, cnvA.logic,
        "~1.0 (negligible)");
    row("SRAM (NBin/NBout/offsets)", base.sram, cnvA.sram,
        "1.158 (+15.8%)");
    row("total", base.total(), cnvA.total(), "1.0449 (+4.49%)");
    bench::emit(opts, "Figure 11: area breakdown", t);

    sim::Table shares({"component", "baseline share", "CNV share"});
    auto shareRow = [&](const char *name, double b, double c) {
        shares.addRow({name, sim::Table::pct(b / base.total()),
                       sim::Table::pct(c / cnvA.total())});
    };
    shareRow("SB", base.sb, cnvA.sb);
    shareRow("NM", base.nm, cnvA.nm);
    shareRow("logic", base.logic, cnvA.logic);
    shareRow("SRAM", base.sram, cnvA.sram);
    bench::emit(opts, "Figure 11 (shares): SB dominates both designs",
                shares);
    return 0;
}
