/** @file Tests for the experiment driver and network timing model. */

#include <gtest/gtest.h>

#include "driver/driver.h"
#include "nn/zoo/zoo.h"
#include "timing/network_model.h"
#include "timing/trace_cache.h"

namespace {

using namespace cnv;

constexpr timing::Dataflow kDense{};
constexpr timing::Dataflow kEncoded{.encoded = true};

TEST(TimingModel, BaselineCyclesAreContentIndependent)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3);
    dadiannao::NodeConfig cfg;
    timing::RunOptions a, b;
    a.imageSeed = 1;
    b.imageSeed = 2;
    const auto ra = timing::simulateNetwork(cfg, *net, kDense, a);
    const auto rb = timing::simulateNetwork(cfg, *net, kDense, b);
    EXPECT_EQ(ra.totalCycles(), rb.totalCycles());
    // ... but the zero/non-zero split differs slightly.
    EXPECT_NE(ra.totalActivity().zero, rb.totalActivity().zero);
}

TEST(TimingModel, CnvFasterThanBaselineOnEveryNetwork)
{
    dadiannao::NodeConfig cfg;
    for (auto id : nn::zoo::allNetworks()) {
        const auto net = nn::zoo::build(id, 3);
        const double s = timing::speedup(cfg, *net, 1, 5);
        EXPECT_GT(s, 1.0) << nn::zoo::netName(id);
        EXPECT_LT(s, 2.0) << nn::zoo::netName(id);
    }
}

TEST(TimingModel, ActivityAccountsEveryLaneCycle)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::CnnM, 3);
    dadiannao::NodeConfig cfg;
    timing::RunOptions opts;
    for (const timing::Dataflow df : {kDense, kEncoded}) {
        const auto r = timing::simulateNetwork(cfg, *net, df, opts);
        EXPECT_EQ(r.totalActivity().total(),
                  r.totalCycles() * 256u)
            << "encoded=" << df.encoded;
    }
}

TEST(TimingModel, PruningIncreasesCnvSpeedup)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3);
    dadiannao::NodeConfig cfg;
    const double plain = timing::speedup(cfg, *net, 1, 5);
    nn::PruneConfig prune;
    prune.thresholds.assign(net->convLayerCount(), 32);
    const double pruned = timing::speedup(cfg, *net, 1, 5, &prune);
    EXPECT_GT(pruned, plain);
}

TEST(Driver, EvaluateAggregatesImages)
{
    driver::ExperimentConfig cfg;
    cfg.images = 2;
    const auto net = nn::zoo::build(nn::zoo::NetId::Alex, cfg.seed);
    const auto report =
        driver::evaluateNetworkArchs(cfg, *net, arch::canonicalPair());
    EXPECT_EQ(report.images, 2);
    EXPECT_GT(report.speedup(), 1.0);
    const auto &base = report.arch("dadiannao");
    const auto &cnvAgg = report.arch("cnv");
    EXPECT_GT(base.cycles, cnvAgg.cycles);
    // Baseline has no stall events; CNV has no zero events.
    EXPECT_EQ(base.activity.stall, 0u);
    EXPECT_EQ(cnvAgg.activity.zero, 0u);
    EXPECT_GT(cnvAgg.activity.stall, 0u);
    EXPECT_EQ(report.findArch("cnv-b8"), nullptr);
}

TEST(Driver, SpeedupAverages)
{
    auto synthetic = [](std::uint64_t baseCycles,
                        std::uint64_t cnvCycles) {
        driver::NetworkReport r;
        auto add = [&r](const char *id, std::uint64_t cycles) {
            driver::ArchAggregate agg;
            agg.model = &arch::builtin().get(id);
            agg.cycles = cycles;
            r.archs.push_back(agg);
        };
        add("dadiannao", baseCycles);
        add("cnv", cnvCycles);
        return r;
    };
    const std::vector<driver::NetworkReport> reports{
        synthetic(150, 100), synthetic(120, 100)};
    EXPECT_NEAR(driver::meanSpeedup(reports), 1.35, 1e-12);
}

TEST(Driver, EvaluateNetworksMatchesOneNetworkRuns)
{
    std::vector<std::unique_ptr<nn::Network>> owned;
    std::vector<const nn::Network *> nets;
    for (auto id : {nn::zoo::NetId::Nin, nn::zoo::NetId::Alex,
                    nn::zoo::NetId::CnnS}) {
        owned.push_back(nn::zoo::build(id, 2016));
        nets.push_back(owned.back().get());
    }
    const auto archs = arch::builtin().select("dadiannao,cnv,cnv2");
    for (const mem::Kind kind : {mem::Kind::Ideal, mem::Kind::Banked}) {
        SCOPED_TRACE(mem::kindName(kind));
        driver::ExperimentConfig cfg;
        cfg.images = 2;
        cfg.memKind = kind;
        timing::TraceCache shared;
        const auto reports =
            driver::evaluateNetworks(cfg, nets, archs, nullptr, &shared);
        ASSERT_EQ(reports.size(), nets.size());

        timing::TraceCache::Stats summed;
        for (std::size_t n = 0; n < nets.size(); ++n) {
            timing::TraceCache own;
            const auto one = driver::evaluateNetworkArchs(
                cfg, *nets[n], archs, nullptr, &own);
            const auto stats = own.stats();
            summed.tensorHits += stats.tensorHits;
            summed.tensorMisses += stats.tensorMisses;
            summed.countMapHits += stats.countMapHits;
            summed.countMapMisses += stats.countMapMisses;

            const driver::NetworkReport &r = reports[n];
            EXPECT_EQ(r.name, nets[n]->name());
            EXPECT_EQ(r.images, one.images);
            ASSERT_EQ(r.archs.size(), archs.size());
            ASSERT_EQ(one.archs.size(), archs.size());
            for (std::size_t a = 0; a < archs.size(); ++a) {
                SCOPED_TRACE(r.name + "/" + archs[a]->id());
                const driver::ArchAggregate &got = r.archs[a];
                const driver::ArchAggregate &want = one.archs[a];
                EXPECT_EQ(got.model, archs[a]);
                EXPECT_EQ(got.cycles, want.cycles);
                EXPECT_GT(got.cycles, 0u);
                EXPECT_EQ(got.activity, want.activity);
                EXPECT_EQ(got.energy, want.energy);
                EXPECT_EQ(got.mem, want.mem);
                EXPECT_EQ(got.memModelled, want.memModelled);
                EXPECT_EQ(got.memModelled, kind == mem::Kind::Banked);
            }
        }
        EXPECT_EQ(shared.stats(), summed);
    }
}

} // namespace
