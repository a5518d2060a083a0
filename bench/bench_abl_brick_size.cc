/**
 * @file
 * Ablation: ZFNAf brick size (DESIGN.md §5).
 *
 * The brick size sets the offset-field width (storage overhead: a
 * 16-neuron brick needs 4-bit offsets, +25% NM capacity) and the
 * skip granularity. Smaller bricks skip zeros at finer grain but
 * pay wider relative offset overhead and fewer neuron lanes per
 * unit; larger bricks amortise offsets but coarsen work
 * distribution. Lanes scale with the brick size (one lane drains
 * one brick), so each point is compared against a baseline with the
 * same lane count.
 */

#include "common.h"
#include "sim/error.h"
#include "sim/logging.h"

using namespace cnv;

int
main(int argc, char **argv)
{
    const auto opts = bench::parseArgs(
        argc, argv, {"--images", "--seed", "--csv", "--jobs", "--mem"});

    const bench::Zoo zoo(opts.experiment.seed);
    // Count maps are keyed by brick size, so one cache serves every
    // geometry.
    timing::TraceCache cache;
    sim::Table t({"brick size", "offset bits", "NM capacity overhead",
                  "avg CNV speedup vs same-lane baseline"});
    for (int brick : {4, 8, 16, 32}) {
        driver::ExperimentConfig cfg = opts.experiment;
        cfg.node.brickSize = brick;
        cfg.node.lanes = brick;
        cfg.node.nmBanks = brick; // one bank per lane

        std::vector<driver::NetworkReport> reports;
        for (const nn::Network *net : zoo.nets) {
            // Grouped convolutions whose group depth is not a brick
            // multiple (alex at brick 32) are skipped quietly.
            const auto verbosity = sim::verbosity();
            sim::setVerbosity(sim::Verbosity::Silent);
            try {
                reports.push_back(driver::evaluateNetworkArchs(
                    cfg, *net, arch::canonicalPair(), nullptr, &cache));
            } catch (const sim::FatalError &) {
            }
            sim::setVerbosity(verbosity);
        }
        int offsetBits = 0;
        while ((1 << offsetBits) < brick)
            ++offsetBits;
        offsetBits = std::max(offsetBits, 1);
        t.addRow({std::to_string(brick) + (brick == 16 ? " (paper)" : ""),
                  std::to_string(offsetBits),
                  sim::Table::pct(offsetBits / 16.0),
                  sim::Table::num(driver::meanSpeedup(reports))});
    }
    bench::emit(opts, "Ablation: ZFNAf brick size", t);
    return 0;
}
