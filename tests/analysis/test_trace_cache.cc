/**
 * @file
 * Tests for timing::TraceCache: cached tensors and count maps are
 * bit-identical to the value synthesis path (with and without
 * pruning), hit/miss counters are exact (tensor counters count value
 * consumers only), concurrent lookups of one key compute it once,
 * warming is invisible to the counters, a warmed sweep synthesizes
 * each (layer, image) once, and simulateNetwork produces identical
 * results with and without a shared cache.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "driver/driver.h"
#include "nn/trace.h"
#include "nn/zoo/zoo.h"
#include "sim/metrics.h"
#include "sim/parallel.h"
#include "timing/network_model.h"
#include "timing/trace_cache.h"
#include "zfnaf/format.h"

namespace {

using namespace cnv;
using dadiannao::NodeConfig;

/** Synthesizes like the cache would, counting every computation. */
class CountingProvider : public timing::TraceProvider
{
  public:
    std::optional<tensor::NeuronTensor>
    convInput(const nn::Network &net, int convNodeId,
              std::uint64_t imageSeed) const override
    {
        calls.fetch_add(1);
        return nn::synthesizeConvInput(net, convNodeId, imageSeed);
    }

    mutable std::atomic<int> calls{0};
};

TEST(TraceCache, TensorMatchesInlineSynthesis)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    timing::TraceCache cache;
    for (int nodeId : net->convNodeIds()) {
        const auto cached = cache.convInput(*net, nodeId, 7, nullptr);
        const auto inline_ =
            nn::synthesizeConvInput(*net, nodeId, 7, nullptr);
        EXPECT_EQ(*cached, inline_);
    }
}

TEST(TraceCache, CountMapMatchesInlinePathWithPruning)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    nn::PruneConfig prune;
    prune.thresholds.assign(
        static_cast<std::size_t>(net->convLayerCount()), 16);
    const NodeConfig cfg;

    timing::TraceCache cache;
    for (int nodeId : net->convNodeIds()) {
        // Inline path: synthesize with pruning applied directly.
        const auto pruned =
            nn::synthesizeConvInput(*net, nodeId, 3, &prune);
        const auto expected = zfnaf::nonZeroCountMap(pruned, cfg.brickSize);
        const auto cached = cache.countMap(*net, nodeId, 3, nullptr,
                                           &prune, cfg.brickSize);
        EXPECT_EQ(*cached, expected);
        // The unpruned map is served count-first.
        EXPECT_EQ(*cache.countMap(*net, nodeId, 4, nullptr, nullptr,
                                  cfg.brickSize),
                  zfnaf::nonZeroCountMap(
                      nn::synthesizeConvInput(*net, nodeId, 4),
                      cfg.brickSize));
    }
}

TEST(TraceCache, HitAndMissCountersAreExact)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    const int nodeId = net->convNodeIds().front();
    nn::PruneConfig prune;
    prune.thresholds.assign(
        static_cast<std::size_t>(net->convLayerCount()), 16);
    timing::TraceCache cache;

    // An unpruned synthetic lookup is count-first: no tensor lookup.
    cache.countMap(*net, nodeId, 1, nullptr, nullptr, 16);
    auto s = cache.stats();
    EXPECT_EQ(s.countMapMisses, 1u);
    EXPECT_EQ(s.countMapHits, 0u);
    EXPECT_EQ(s.tensorMisses, 0u);

    // Same key: a pure hit, nothing recomputed.
    cache.countMap(*net, nodeId, 1, nullptr, nullptr, 16);
    s = cache.stats();
    EXPECT_EQ(s.countMapMisses, 1u);
    EXPECT_EQ(s.countMapHits, 1u);
    EXPECT_EQ(s.tensorMisses, 0u);

    // Different brick size: a new count map, still value-free.
    cache.countMap(*net, nodeId, 1, nullptr, nullptr, 8);
    s = cache.stats();
    EXPECT_EQ(s.countMapMisses, 2u);
    EXPECT_EQ(s.tensorMisses, 0u);

    // A pruned lookup needs values: its first lookup is the tensor's
    // miss, and an explicit convInput then hits the same tensor.
    cache.countMap(*net, nodeId, 1, nullptr, &prune, 16);
    cache.convInput(*net, nodeId, 1, nullptr);
    s = cache.stats();
    EXPECT_EQ(s.countMapMisses, 3u);
    EXPECT_EQ(s.tensorMisses, 1u);
    EXPECT_EQ(s.tensorHits, 1u);
}

TEST(TraceCache, ConcurrentLookupsComputeOnce)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    const int nodeId = net->convNodeIds().front();
    timing::TraceCache cache;
    sim::ThreadPool pool(4);
    sim::parallelFor(pool, 16, [&](std::size_t) {
        cache.countMap(*net, nodeId, 9, nullptr, nullptr, 16);
    });
    const auto s = cache.stats();
    EXPECT_EQ(s.countMapMisses, 1u);
    EXPECT_EQ(s.countMapHits, 15u);
    EXPECT_EQ(s.tensorMisses, 0u);
}

TEST(TraceCache, WarmingLeavesStatsAndTensorsUnchanged)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    nn::PruneConfig prune;
    prune.thresholds.assign(
        static_cast<std::size_t>(net->convLayerCount()), 16);
    const std::vector<std::uint64_t> seeds{3, 4};

    // The same lookup sequence on a warmed and an unwarmed cache,
    // with a key (seed 5) the warm did not cover.
    auto lookups = [&](timing::TraceCache &cache) {
        std::vector<std::shared_ptr<const tensor::NeuronTensor>> tensors;
        for (std::uint64_t seed : {3, 4, 5, 3}) {
            for (int nodeId : net->convNodeIds()) {
                cache.countMap(*net, nodeId, seed, nullptr, nullptr, 16);
                cache.countMap(*net, nodeId, seed, nullptr, &prune, 16);
                tensors.push_back(
                    cache.convInput(*net, nodeId, seed, nullptr));
            }
        }
        return tensors;
    };

    timing::TraceCache warmed;
    warmed.warm(*net, seeds, nullptr, {{16, {}}, {16, prune}});
    EXPECT_EQ(warmed.stats(), timing::TraceCache::Stats{});
    timing::TraceCache cold;
    const auto a = lookups(warmed);
    const auto b = lookups(cold);

    EXPECT_EQ(warmed.stats(), cold.stats());
    EXPECT_EQ(warmed.stats().tensorMisses,
              3u * static_cast<std::size_t>(net->convLayerCount()));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(*a[i], *b[i]);
}

TEST(TraceCache, SecondWarmIsANoOp)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    const CountingProvider provider;
    timing::TraceCache cache;
    cache.warm(*net, {7}, &provider, {{16, {}}});
    EXPECT_EQ(provider.calls.load(), net->convLayerCount());
    cache.warm(*net, {7}, &provider, {{16, {}}});
    EXPECT_EQ(provider.calls.load(), net->convLayerCount());
    EXPECT_EQ(cache.stats(), timing::TraceCache::Stats{});

    // Counted lookups of warmed keys compute nothing either.
    for (int nodeId : net->convNodeIds())
        cache.countMap(*net, nodeId, 7, &provider, nullptr, 16);
    EXPECT_EQ(provider.calls.load(), net->convLayerCount());
}

TEST(TraceCache, WarmRacingLookupsComputesEachKeyOnce)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    const std::vector<std::uint64_t> seeds{1, 2};
    const CountingProvider provider;
    timing::TraceCache cache;

    const int previousJobs = sim::jobCount();
    sim::setJobCount(4);
    // Task 0 warms (itself fanning out on the same pool) while the
    // other tasks look every key up through count maps.
    const std::vector<int> &nodes = net->convNodeIds();
    const std::size_t keys = nodes.size() * seeds.size();
    sim::parallelFor(1 + 2 * keys, [&](std::size_t i) {
        if (i == 0) {
            cache.warm(*net, seeds, &provider, {{16, {}}});
            return;
        }
        const std::size_t k = (i - 1) % keys;
        cache.countMap(*net, nodes[k % nodes.size()],
                       seeds[k / nodes.size()], &provider, nullptr, 16);
    });
    sim::setJobCount(previousJobs);

    EXPECT_EQ(provider.calls.load(), static_cast<int>(keys));
    const auto s = cache.stats();
    EXPECT_EQ(s.tensorMisses, keys);
    EXPECT_EQ(s.tensorHits, 0u);
    EXPECT_EQ(s.countMapMisses, keys);
    EXPECT_EQ(s.countMapHits, keys);
}

/** Syntheses (value or count-only) recorded since metrics came on. */
std::uint64_t
synthesesSoFar()
{
    const auto snap = sim::metrics().snapshot();
    const auto it = snap.histograms.find("traceCache.synthesis");
    return it != snap.histograms.end() ? it->second.count : 0;
}

// After the sweep's warm, no grid task synthesizes: each (conv layer,
// image) is synthesized exactly once, with values when a pruned or
// multi-brick grid needs them and count-only otherwise.
TEST(TraceCache, WarmedGridSynthesizesEachLayerImageOnce)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    driver::ExperimentConfig cfg;
    cfg.images = 2;
    cfg.seed = 5;
    const std::uint64_t keys =
        static_cast<std::uint64_t>(net->convLayerCount()) * 2u;
    const std::string grids[] = {"dadiannao,cnv,cnv-pruned,cnv-b8",
                                 "dadiannao,cnv,cnv2"};
    sim::metrics().setEnabled(true);
    for (const std::string &grid : grids) {
        timing::TraceCache cache;
        const std::uint64_t before = synthesesSoFar();
        driver::evaluateNetworkArchs(cfg, *net, arch::builtin().select(grid),
                                     nullptr, &cache);
        EXPECT_EQ(synthesesSoFar() - before, keys) << grid;
        // Value tensors only where a pruned lookup asked for them.
        EXPECT_EQ(cache.stats().tensorMisses,
                  grid.find("pruned") != std::string::npos ? keys : 0u)
            << grid;
    }
    sim::metrics().setEnabled(false);
}

TEST(TraceCache, SimulateNetworkIdenticalWithAndWithoutCache)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    const NodeConfig cfg;
    nn::PruneConfig prune;
    prune.thresholds.assign(
        static_cast<std::size_t>(net->convLayerCount()), 16);

    for (const nn::PruneConfig *p :
         {static_cast<const nn::PruneConfig *>(nullptr),
          static_cast<const nn::PruneConfig *>(&prune)}) {
        for (bool encoded : {false, true}) {
            const timing::Dataflow df{.encoded = encoded};
            timing::RunOptions plain;
            plain.imageSeed = 11;
            plain.prune = p;
            const auto direct =
                timing::simulateNetwork(cfg, *net, df, plain);

            timing::TraceCache cache;
            timing::RunOptions withCache = plain;
            withCache.cache = &cache;
            const auto cached =
                timing::simulateNetwork(cfg, *net, df, withCache);

            ASSERT_EQ(direct.layers.size(), cached.layers.size());
            EXPECT_EQ(direct.totalCycles(), cached.totalCycles());
            for (std::size_t i = 0; i < direct.layers.size(); ++i) {
                EXPECT_EQ(direct.layers[i].cycles,
                          cached.layers[i].cycles);
                EXPECT_EQ(direct.layers[i].activity.zero,
                          cached.layers[i].activity.zero);
                EXPECT_EQ(direct.layers[i].activity.nonZero,
                          cached.layers[i].activity.nonZero);
            }
        }
    }
}

} // namespace
