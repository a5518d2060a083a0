/**
 * @file
 * End-to-end pins for the memory-hierarchy refactor: the ideal
 * backend must reproduce the pre-refactor cycle counts bit-identical
 * (every timing-model access goes through `mem::` now, so any
 * accidental cost on the ideal path shows up here), and the banked
 * backend must attribute its extra cycles without breaking the
 * stalls.total() == laneIdleCycles invariant.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "arch/registry.h"
#include "driver/driver.h"
#include "driver/stats_report.h"
#include "mem/memory_model.h"
#include "nn/zoo/zoo.h"
#include "support/json_parser.h"
#include "timing/network_model.h"

namespace {

using namespace cnv;
using testsupport::Json;
using testsupport::Parser;

TEST(MemoryModelPins, IdealReproducesPreRefactorCycleCounts)
{
    driver::ExperimentConfig cfg;
    cfg.images = 1;
    cfg.seed = 2016;
    ASSERT_EQ(cfg.memKind, mem::Kind::Ideal); // the default
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, cfg.seed);
    const auto report = driver::evaluateNetworkArchs(
        cfg, *net, arch::builtin().select("dadiannao,cnv,cnv2"));

    // The PR 6 counts, pinned: an ideal run must stay bit-identical
    // to the numbers produced before the hierarchy existed.
    EXPECT_EQ(report.arch("dadiannao").cycles, 362123u);
    EXPECT_EQ(report.arch("cnv").cycles, 287346u);
    EXPECT_EQ(report.arch("cnv2").cycles, 262934u);
    for (const driver::ArchAggregate &a : report.archs) {
        EXPECT_FALSE(a.memModelled) << a.id();
        EXPECT_EQ(a.mem.nmAccesses, 0u) << a.id();
    }
}

TEST(MemoryModelPins, BankedKeepsStallAttributionInvariant)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    dadiannao::NodeConfig cfg;
    for (const char *archId : {"dadiannao", "cnv", "cnv2"}) {
        const arch::ArchModel &model = arch::builtin().get(archId);
        timing::RunOptions opts;
        opts.imageSeed = 2016;
        opts.memKind = mem::Kind::Banked;
        const auto run = model.simulateNetwork(cfg, *net, opts);
        EXPECT_TRUE(run.memModelled) << archId;
        for (const dadiannao::LayerResult &layer : run.layers)
            EXPECT_EQ(layer.micro.stalls.total(),
                      layer.micro.laneIdleCycles)
                << archId << " " << layer.name;
        const std::uint64_t conflicts =
            run.totalMicro().stalls[dadiannao::StallReason::NmBankConflict];
        if (std::string(archId) == "dadiannao") {
            // One unit-wide fetch pointer never conflicts...
            EXPECT_EQ(conflicts, 0u);
            EXPECT_GT(run.totalMem().nmAccesses, 0u);
        } else {
            // ...while CNV's sixteen independent slice pointers do.
            EXPECT_GT(conflicts, 0u) << archId;
        }
    }
}

TEST(MemoryModelPins, BankedReportCarriesSummaryMemory)
{
    driver::ExperimentConfig cfg;
    cfg.images = 1;
    cfg.seed = 2016;
    cfg.memKind = mem::Kind::Banked;
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, cfg.seed);
    const auto report = driver::buildRunReport(
        cfg, *net, arch::builtin().select("dadiannao,cnv"));

    std::ostringstream os;
    driver::writeReportJson(report, os);
    Json doc = Parser(os.str()).parse();

    EXPECT_EQ(doc.at("manifest").at("mem").text, "banked");
    const Json &memory = doc.at("summary").at("memory");
    const Json &cnv = memory.at("cnv");
    EXPECT_GT(cnv.at("nmConflictCycles").number, 0.0);
    EXPECT_GT(cnv.at("gbHits").number, 0.0);
    EXPECT_GT(cnv.at("dramBytes").number, 0.0);
    EXPECT_EQ(memory.at("dadiannao").at("nmConflictCycles").number, 0.0);
    const double boundSplit = cnv.at("memoryBoundLayers").number +
                              cnv.at("computeBoundLayers").number;
    EXPECT_GT(boundSplit, 0.0);

    // The per-arch stat trees carry the new counters too.
    const Json &cnvMem =
        doc.at("architectures").at("cnv").at("groups").at("memory");
    EXPECT_GT(cnvMem.at("stats").at("nmAccesses").at("value").number,
              0.0);
}

} // namespace
