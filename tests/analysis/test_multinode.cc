/** @file Tests for the multi-node scaling model. */

#include <gtest/gtest.h>

#include "nn/zoo/zoo.h"
#include "sim/error.h"
#include "sim/logging.h"
#include "timing/multinode.h"

namespace {

using namespace cnv;

constexpr timing::Dataflow kDense{};
constexpr timing::Dataflow kEncoded{.encoded = true};

TEST(MultiNode, OneNodeIsExactlyTheSingleNodeModel)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3);
    dadiannao::NodeConfig cfg;
    timing::RunOptions opts;
    timing::MultiNodeOptions mn;
    mn.nodes = 1;
    EXPECT_EQ(timing::simulateMultiNode(cfg, mn, *net, "cnv", kEncoded,
                                        opts)
                  .totalCycles(),
              timing::simulateNetwork(cfg, *net, kEncoded, opts)
                  .totalCycles());
}

TEST(MultiNode, TwoNodesNearlyHalveConvTime)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Vgg19, 3);
    timing::MultiNodeOptions mn;
    mn.nodes = 2;
    const double s = timing::multiNodeScaling(
        dadiannao::NodeConfig{}, mn, *net, kDense, 3);
    EXPECT_GT(s, 1.7);
    EXPECT_LE(s, 2.05);
}

TEST(MultiNode, ScalingSaturatesWithSlowLinks)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3);
    timing::MultiNodeOptions fast, slow;
    fast.nodes = slow.nodes = 8;
    fast.broadcastBlocksPerCycle = 8.0;
    slow.broadcastBlocksPerCycle = 0.05;
    const double sFast = timing::multiNodeScaling(
        dadiannao::NodeConfig{}, fast, *net, kDense, 3);
    const double sSlow = timing::multiNodeScaling(
        dadiannao::NodeConfig{}, slow, *net, kDense, 3);
    EXPECT_GT(sFast, sSlow);
}

TEST(MultiNode, ExchangeEntriesAppearInTheLayerLog)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3);
    dadiannao::NodeConfig cfg;
    timing::RunOptions opts;
    timing::MultiNodeOptions mn;
    mn.nodes = 8;
    mn.broadcastBlocksPerCycle = 0.05; // force exposure
    const auto r = timing::simulateMultiNode(cfg, mn, *net, "dadiannao",
                                             kDense, opts);
    const bool found = std::any_of(
        r.layers.begin(), r.layers.end(), [](const auto &l) {
            return l.name.find(":halo-exchange") != std::string::npos;
        });
    EXPECT_TRUE(found);
    EXPECT_EQ(r.architecture, "dadiannao x8");
}

/** Every encoded dataflow exchanges ZFNAf (value, offset) pairs, so
 *  cnv2's halos are as wide as cnv's, 25% wider than the baseline's.
 *  The first exchange (conv1's halo) follows identical layers on all
 *  three, so its exposed part differs only by the exchange width. */
TEST(MultiNode, EncodedDataflowsExchangeAtEncodedWidth)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3);
    dadiannao::NodeConfig cfg;
    timing::RunOptions opts;
    timing::MultiNodeOptions mn;
    mn.nodes = 8;
    mn.broadcastBlocksPerCycle = 0.05; // force exposure
    const auto firstExchange = [&](timing::Dataflow df) {
        const auto r =
            timing::simulateMultiNode(cfg, mn, *net, "x", df, opts);
        for (const auto &l : r.layers)
            if (l.name.find(":halo-exchange") != std::string::npos)
                return l.cycles;
        ADD_FAILURE() << "no exposed halo exchange";
        return std::uint64_t{0};
    };
    const auto dense = firstExchange(kDense);
    const auto cnv = firstExchange(kEncoded);
    const auto cnv2 =
        firstExchange({.encoded = true, .skipsWeights = true});
    EXPECT_GT(cnv, dense);
    EXPECT_EQ(cnv2, cnv);
}

TEST(MultiNode, InvalidOptionsAreFatal)
{
    sim::setVerbosity(sim::Verbosity::Silent);
    const auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3, 16);
    timing::RunOptions opts;
    timing::MultiNodeOptions mn;
    mn.nodes = 0;
    EXPECT_THROW(timing::simulateMultiNode(dadiannao::NodeConfig{}, mn,
                                           *net, "cnv", kEncoded, opts),
                 sim::FatalError);
    mn.nodes = 2;
    mn.broadcastBlocksPerCycle = 0.0;
    EXPECT_THROW(timing::simulateMultiNode(dadiannao::NodeConfig{}, mn,
                                           *net, "cnv", kEncoded, opts),
                 sim::FatalError);
    sim::setVerbosity(sim::Verbosity::Info);
}

} // namespace
