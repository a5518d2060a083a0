/** @file Tests for the stats-report bridge. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "arch/registry.h"
#include "driver/stats_report.h"
#include "driver/trace_pipeline.h"
#include "nn/zoo/zoo.h"
#include "timing/network_model.h"

namespace {

using namespace cnv;

dadiannao::NetworkResult
sampleRun(const arch::ArchModel &model)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3);
    dadiannao::NodeConfig cfg;
    timing::RunOptions opts;
    return model.simulateNetwork(cfg, *net, opts);
}

const arch::ArchModel &
cnvModel()
{
    return arch::builtin().get("cnv");
}

TEST(StatsReport, TreeHoldsRunTotals)
{
    const auto run = sampleRun(cnvModel());
    const auto stats = driver::buildStats(run, cnvModel());

    EXPECT_DOUBLE_EQ(stats->get("cycles"),
                     static_cast<double>(run.totalCycles()));
    EXPECT_DOUBLE_EQ(stats->get("activity.nonZero"),
                     static_cast<double>(run.totalActivity().nonZero));
    EXPECT_DOUBLE_EQ(stats->get("energy.sbReads"),
                     static_cast<double>(run.totalEnergy().sbReads));
}

TEST(StatsReport, DerivedFormulasAreConsistent)
{
    const auto &model = arch::builtin().get("dadiannao");
    const auto run = sampleRun(model);
    const auto stats = driver::buildStats(run, model);

    const auto activity = run.totalActivity();
    EXPECT_NEAR(stats->get("zeroShare"),
                static_cast<double>(activity.zero) / activity.total(),
                1e-12);
    const double util = stats->get("laneUtilisation");
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0);
}

TEST(StatsReport, PowerScalarsMatchModel)
{
    const auto run = sampleRun(cnvModel());
    const auto stats = driver::buildStats(run, cnvModel());
    const auto pb =
        cnvModel().power(run.totalEnergy(), run.totalCycles());
    EXPECT_NEAR(stats->get("power.totalWatts"), pb.total(), 1e-9);
    const auto m =
        cnvModel().metrics(run.totalEnergy(), run.totalCycles());
    EXPECT_NEAR(stats->get("power.edp"), m.edp, 1e-15);
}

TEST(StatsReport, PerLayerGroupsExist)
{
    const auto run = sampleRun(cnvModel());
    const auto stats = driver::buildStats(run, cnvModel());
    // Every layer entry is addressable by its stat key and the
    // per-layer cycles sum to the run's.
    double layerCycles = 0.0;
    for (std::size_t i = 0; i < run.layers.size(); ++i) {
        layerCycles += stats->get(
            "layers." +
            driver::layerStatKey(static_cast<int>(i), run.layers[i].name) +
            ".cycles");
    }
    EXPECT_DOUBLE_EQ(layerCycles,
                     static_cast<double>(run.totalCycles()));
}

TEST(StatsReport, DumpIsReadable)
{
    const auto run = sampleRun(cnvModel());
    const auto stats = driver::buildStats(run, cnvModel());
    std::ostringstream os;
    stats->dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("cnv.cycles"), std::string::npos);
    EXPECT_NE(out.find("cnv.activity.stall"), std::string::npos);
    EXPECT_NE(out.find("cnv.power.totalWatts"), std::string::npos);
}

} // namespace
