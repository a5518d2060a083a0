/**
 * @file
 * Bring-your-own-traces: the synthetic activation generator is a
 * documented substitution for real framework traces (DESIGN.md §2).
 * This example shows the escape hatch — export per-layer traces to
 * disk, then drive the timing models from the files instead. Real
 * traces dumped from an actual framework (one .cnvt tensor per conv
 * layer input, see tensor/serialize.h and docs/zfnaf.md) drop into
 * the same directory layout.
 *
 * Usage: ./build/examples/external_traces [network] [dir]
 */

#include <filesystem>
#include <iostream>

#include "arch/registry.h"
#include "nn/trace.h"
#include "nn/zoo/zoo.h"
#include "sim/table.h"
#include "tensor/serialize.h"
#include "timing/network_model.h"

int
main(int argc, char **argv)
{
    using namespace cnv;

    const std::string name = argc > 1 ? argv[1] : "cnnS";
    const std::string dir = argc > 2 ? argv[2] : "example-traces";
    const auto net = nn::zoo::build(nn::zoo::netFromName(name), 2016);
    const std::uint64_t imageSeed = 42;

    // 1. Export one image's per-layer traces (stand-in for a real
    //    framework dump).
    std::filesystem::create_directories(dir);
    const timing::DirectoryTraceProvider provider(dir);
    for (int nodeId : net->convNodeIds()) {
        const auto trace =
            nn::synthesizeConvInput(*net, nodeId, imageSeed);
        tensor::saveTensorFile(provider.pathFor(*net, nodeId, imageSeed),
                               trace);
    }
    std::cout << "exported " << net->convLayerCount()
              << " layer traces to " << dir << "/\n";

    // 2. Run both architectures against the files.
    const dadiannao::NodeConfig node;
    timing::RunOptions opts;
    opts.imageSeed = imageSeed;
    opts.traces = &provider;

    const auto base =
        arch::builtin().get("dadiannao").simulateNetwork(node, *net, opts);
    const auto cnvRun =
        arch::builtin().get("cnv").simulateNetwork(node, *net, opts);

    sim::Table t({"architecture", "cycles", "zero lane-events"});
    t.addRow({"dadiannao", sim::Table::intNum(base.totalCycles()),
              sim::Table::intNum(base.totalActivity().zero)});
    t.addRow({"cnv", sim::Table::intNum(cnvRun.totalCycles()),
              sim::Table::intNum(cnvRun.totalActivity().zero)});
    t.print(std::cout);
    std::cout << "speedup from the file-driven traces: "
              << sim::Table::num(
                     static_cast<double>(base.totalCycles()) /
                     static_cast<double>(cnvRun.totalCycles()))
              << "x\n";

    std::filesystem::remove_all(dir);
    return 0;
}
