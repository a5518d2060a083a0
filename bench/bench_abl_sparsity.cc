/**
 * @file
 * Ablation: sensitivity of the headline result to the assumed zero
 * fraction. The per-network Figure 1 values are calibration targets
 * (DESIGN.md §2); this sweep re-calibrates every network to a range
 * of MAC-weighted zero fractions and reports the average CNV
 * speedup, showing how the paper's conclusion degrades gracefully
 * if real sparsity were lower (and grows if higher). The ideal
 * bound 1/(1 - z) is printed for reference; the gap to it is the
 * first layer, non-conv time, and synchronisation stalls.
 */

#include "common.h"

using namespace cnv;

int
main(int argc, char **argv)
{
    const auto opts = bench::parseArgs(
        argc, argv, {"--images", "--seed", "--csv", "--jobs", "--mem"});

    sim::Table t({"assumed zero fraction", "avg CNV speedup",
                  "ideal bound 1/(1-z)"});
    for (double target : {0.25, 0.35, 0.44, 0.55, 0.65}) {
        bench::Zoo zoo(opts.experiment.seed);
        for (const auto &net : zoo.owned) {
            nn::zoo::calibrateSparsity(*net, target);
            net->deriveOutputTargets();
        }
        // A fresh cache per target: the recalibrated networks keep
        // their names, and timing::TraceCache keys by name.
        timing::TraceCache cache;
        const auto reports = driver::evaluateNetworks(
            opts.experiment, zoo.nets, arch::canonicalPair(), nullptr,
            &cache);
        t.addRow({sim::Table::pct(target) +
                      (target == 0.44 ? " (paper avg)" : ""),
                  sim::Table::num(driver::meanSpeedup(reports)),
                  sim::Table::num(1.0 / (1.0 - target))});
    }
    bench::emit(opts,
                "Ablation: CNV speedup vs assumed conv-layer zero "
                "fraction",
                t);
    return 0;
}
