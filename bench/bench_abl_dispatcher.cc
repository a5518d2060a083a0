/**
 * @file
 * Ablation: dispatcher modelling choices (DESIGN.md §5).
 *
 *  1. Empty-brick cost — the default charges one (NM-bank-limited)
 *     cycle per all-zero brick, matching the paper's worst-case
 *     bandwidth remark; the idealised variant skips them for free.
 *  2. Windows in flight — NBout holds 64 entries = 4 windows of
 *     partial sums; fewer windows in flight means more
 *     synchronisation stalls (Section IV-B5).
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

    std::vector<driver::ExperimentConfig> emptyBrick;
    for (bool costs : {true, false}) {
        emptyBrick.push_back(opts.experiment);
        emptyBrick.back().node.emptyBrickCostsCycle = costs;
    }
    bench::emit(opts, "Ablation: cost of all-zero bricks",
                bench::speedupTable({"network",
                                     "empty brick = 1 cycle (default)",
                                     "empty brick free"},
                                    zoo, emptyBrick, cache));

    std::vector<driver::ExperimentConfig> nbout;
    for (int entries : {16, 32, 64, 128}) {
        nbout.push_back(opts.experiment);
        nbout.back().node.nboutEntries = entries;
    }
    bench::emit(opts,
                "Ablation: NBout depth (windows in flight between "
                "synchronisations)",
                bench::speedupTable({"network", "1 window", "2 windows",
                                     "4 windows (default)", "8 windows"},
                                    zoo, nbout, cache));
    return 0;
}
