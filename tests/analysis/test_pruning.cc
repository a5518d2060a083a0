/** @file Tests for the pruning threshold explorer. */

#include <gtest/gtest.h>

#include <set>

#include "nn/trace.h"
#include "nn/zoo/zoo.h"
#include "pruning/explore.h"

namespace {

using namespace cnv;

TEST(Pruning, ZeroThresholdsAreAlwaysLossless)
{
    auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3, 16);
    net->calibrate();
    nn::PruneConfig none;
    none.thresholds.assign(net->convLayerCount(), 0);
    EXPECT_DOUBLE_EQ(pruning::relativeAccuracy(*net, none, 6, 9), 1.0);
}

TEST(Pruning, ExtremeThresholdsDestroyAccuracy)
{
    auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3, 16);
    net->calibrate();
    // Unpruned predictions must vary across images, else agreement
    // is vacuous (the synthetic image generator guarantees this).
    std::set<int> classes;
    for (int i = 0; i < 8; ++i) {
        const auto input =
            nn::synthesizeImage(net->node(0).outShape, 9 + i);
        classes.insert(net->forward(input).top1);
    }
    EXPECT_GE(classes.size(), 2u);

    // A threshold above the representable range zeroes every conv
    // output; prediction collapses to a constant.
    nn::PruneConfig nuke;
    nuke.thresholds.assign(net->convLayerCount(), 40000);
    EXPECT_LT(pruning::relativeAccuracy(*net, nuke, 8, 9), 1.0);
}

TEST(Pruning, AccuracyIsMonotoneInThresholdIntensityOnAverage)
{
    auto net = nn::zoo::build(nn::zoo::NetId::CnnS, 3, 16);
    net->calibrate();
    double prev = 1.1;
    bool everDropped = false;
    for (std::int32_t t : {0, 128, 2048, 20000}) {
        nn::PruneConfig cfg;
        cfg.thresholds.assign(net->convLayerCount(), t);
        const double acc = pruning::relativeAccuracy(*net, cfg, 8, 4);
        EXPECT_LE(acc, prev + 0.25); // loose monotonicity
        everDropped |= acc < 1.0;
        prev = acc;
    }
    EXPECT_TRUE(everDropped);
}

TEST(Pruning, ParetoFrontierIsMonotone)
{
    std::vector<pruning::ExplorationPoint> pts;
    auto add = [&](double speedup, double acc) {
        pruning::ExplorationPoint p;
        p.speedup = speedup;
        p.relativeAccuracy = acc;
        pts.push_back(p);
    };
    add(1.0, 1.0);
    add(1.2, 0.98);
    add(1.1, 0.90); // dominated: slower and less accurate than (1.2,0.98)
    add(1.5, 0.80);
    add(1.4, 0.70); // dominated
    const auto frontier = pruning::paretoFrontier(pts);
    ASSERT_EQ(frontier.size(), 3u);
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        EXPECT_GT(frontier[i].speedup, frontier[i - 1].speedup);
        EXPECT_LT(frontier[i].relativeAccuracy,
                  frontier[i - 1].relativeAccuracy);
    }
}

TEST(Pruning, LosslessSearchFindsNonTrivialThresholds)
{
    // Use the scaled network for both timing and accuracy to keep
    // the test fast; full-geometry search runs in the bench.
    auto accNet = nn::zoo::build(nn::zoo::NetId::Alex, 3, 16);
    accNet->calibrate();

    dadiannao::NodeConfig cfg;
    pruning::SearchOptions opts;
    opts.accuracyImages = 6;
    opts.timingImages = 1;
    opts.levels = {0, 2, 4, 8};

    const auto point =
        pruning::searchLossless(cfg, *accNet, *accNet, opts);
    EXPECT_DOUBLE_EQ(point.relativeAccuracy, 1.0);
    // At least one layer should tolerate a non-zero threshold.
    std::int32_t maxT = 0;
    for (std::int32_t t : point.config.thresholds)
        maxT = std::max(maxT, t);
    EXPECT_GT(maxT, 0);
}

/**
 * The greedy search spelled out over relativeAccuracy(), which
 * re-scores every candidate with full forward passes from the image.
 */
pruning::ExplorationPoint
oracleSearch(const nn::Network &net, const pruning::SearchOptions &opts,
             const std::vector<std::vector<int>> &groups)
{
    auto accuracyOf = [&](const nn::PruneConfig &c) {
        return pruning::relativeAccuracy(net, c, opts.accuracyImages,
                                         opts.seed);
    };
    pruning::ExplorationPoint point;
    point.config.thresholds.assign(net.convLayerCount(), opts.levels[0]);
    for (const std::vector<int> &group : groups) {
        for (std::size_t level = 1; level < opts.levels.size(); ++level) {
            nn::PruneConfig candidate = point.config;
            for (int layer : group)
                candidate.thresholds[layer] = opts.levels[level];
            if (accuracyOf(candidate) + 1e-12 < opts.accuracyFloor)
                break;
            point.config = candidate;
        }
    }
    point.relativeAccuracy = accuracyOf(point.config);
    return point;
}

void
expectSearchMatchesOracle(nn::zoo::NetId id,
                          std::vector<std::vector<int>> layerGroups)
{
    auto net = nn::zoo::build(id, 3, 16);
    net->calibrate();
    pruning::SearchOptions opts;
    opts.accuracyImages = 6;
    opts.layerGroups = layerGroups;
    if (layerGroups.empty())
        layerGroups = pruning::thresholdGroups(*net);

    const auto found = pruning::searchLossless({}, *net, *net, opts);
    const auto oracle = oracleSearch(*net, opts, layerGroups);
    EXPECT_EQ(found.config.thresholds, oracle.config.thresholds);
    EXPECT_EQ(found.relativeAccuracy, oracle.relativeAccuracy);
    // The comparison is only telling if the search moved.
    EXPECT_TRUE(oracle.config.prunesValues());
}

TEST(Pruning, SearchMatchesFullForwardOracle)
{
    expectSearchMatchesOracle(nn::zoo::NetId::Alex, {});
    expectSearchMatchesOracle(nn::zoo::NetId::Google, {});
    // Out-of-order groups send the search back to an earlier node
    // than its passes have reached, so they restart from the image.
    expectSearchMatchesOracle(nn::zoo::NetId::Alex,
                              {{3}, {1, 4}, {2}, {0}});
}

TEST(Pruning, TradeoffSweepProducesOrderedPoints)
{
    auto accNet = nn::zoo::build(nn::zoo::NetId::Alex, 3, 16);
    accNet->calibrate();

    dadiannao::NodeConfig cfg;
    pruning::SearchOptions opts;
    opts.accuracyImages = 4;
    opts.timingImages = 1;
    opts.levels = {0, 8, 64};

    const auto pts = pruning::tradeoffSweep(cfg, *accNet, *accNet, opts);
    ASSERT_GT(pts.size(), 3u);
    for (std::size_t i = 1; i < pts.size(); ++i)
        EXPECT_GE(pts[i].speedup, pts[i - 1].speedup);
}

TEST(Pruning, ThresholdGroupsFollowNamePrefixes)
{
    // google: conv1, conv2 stem, nine inception modules, two aux
    // heads = 13 groups (the paper specifies per-module thresholds).
    const auto google = nn::zoo::build(nn::zoo::NetId::Google, 1, 16);
    const auto groups = pruning::thresholdGroups(*google);
    EXPECT_EQ(groups.size(), 13u);
    int covered = 0;
    for (const auto &g : groups)
        covered += static_cast<int>(g.size());
    EXPECT_EQ(covered, google->convLayerCount());

    // Networks without '/'-structured names get one group per layer.
    const auto alex = nn::zoo::build(nn::zoo::NetId::Alex, 1, 16);
    EXPECT_EQ(pruning::thresholdGroups(*alex).size(), 5u);
}

} // namespace
