/**
 * @file
 * Ablation: brick-to-lane assignment policies (DESIGN.md §5).
 *
 * ZOnly is the strict reading of Section IV-B2 ("slices are
 * complete vertical chunks"); it starves lanes on layers whose
 * depth has fewer bricks than lanes. XYZHash keeps the bank mapping
 * array-static but collides on adjacent window cells. WindowEven
 * (the default) divides each window group's bricks evenly, matching
 * the paper's reported speedups.
 */

#include "common.h"

using namespace cnv;

int
main(int argc, char **argv)
{
    const auto opts = bench::parseArgs(
        argc, argv, {"--images", "--seed", "--csv", "--jobs", "--mem"});

    std::vector<driver::ExperimentConfig> configs;
    for (auto policy : {dadiannao::LaneAssignment::ZOnly,
                        dadiannao::LaneAssignment::XYZHash,
                        dadiannao::LaneAssignment::WindowEven}) {
        configs.push_back(opts.experiment);
        configs.back().node.laneAssignment = policy;
    }
    timing::TraceCache cache;
    bench::emit(opts,
                "Ablation: CNV speedup under different brick-to-lane "
                "assignments",
                bench::speedupTable({"network", "ZOnly", "XYZHash",
                                     "WindowEven (default)"},
                                    bench::Zoo(opts.experiment.seed),
                                    configs, cache, /*average=*/true));
    return 0;
}
