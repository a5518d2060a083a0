/** @file Tests for synthetic activation trace generation. */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "nn/trace.h"
#include "nn/zoo/zoo.h"
#include "sim/rng.h"
#include "zfnaf/format.h"

namespace {

using namespace cnv;
using tensor::Fixed16;
using tensor::NeuronTensor;

TEST(Traces, HitsTargetZeroFraction)
{
    for (double target : {0.2, 0.44, 0.7}) {
        nn::SparsityModel model;
        model.zeroFraction = target;
        sim::Rng rng(100 + static_cast<int>(target * 100));
        const NeuronTensor t =
            nn::synthesizeActivations({32, 32, 128}, model, rng);
        EXPECT_NEAR(tensor::zeroFraction(t), target, 0.02) << target;
    }
}

TEST(Traces, ExtremesAreExact)
{
    nn::SparsityModel model;
    sim::Rng rng(1);
    model.zeroFraction = 1.0;
    EXPECT_DOUBLE_EQ(tensor::zeroFraction(nn::synthesizeActivations(
                         {8, 8, 32}, model, rng)), 1.0);
    model.zeroFraction = 0.0;
    EXPECT_DOUBLE_EQ(tensor::zeroFraction(nn::synthesizeActivations(
                         {8, 8, 32}, model, rng)), 0.0);
}

TEST(Traces, NonZeroValuesArePositive)
{
    nn::SparsityModel model;
    model.zeroFraction = 0.5;
    sim::Rng rng(3);
    const NeuronTensor t = nn::synthesizeActivations({8, 8, 64}, model, rng);
    for (const Fixed16 v : t)
        EXPECT_GE(v.raw(), 0);
}

TEST(Traces, ChannelDispersionWidensFiringRateSpread)
{
    // Higher channel dispersion must widen the distribution of
    // per-channel firing rates (rarely- vs often-firing features).
    auto rateVariance = [](double dispersion) {
        nn::SparsityModel model;
        model.zeroFraction = 0.5;
        model.channelDispersion = dispersion;
        model.spatialDispersion = 0.0;
        sim::Rng rng(17);
        const NeuronTensor t =
            nn::synthesizeActivations({16, 16, 256}, model, rng);
        double sum = 0, sumSq = 0;
        for (int z = 0; z < 256; ++z) {
            int nz = 0;
            for (int y = 0; y < 16; ++y)
                for (int x = 0; x < 16; ++x)
                    nz += !t.at(x, y, z).isZero();
            const double rate = nz / 256.0;
            sum += rate;
            sumSq += rate * rate;
        }
        const double mean = sum / 256.0;
        return sumSq / 256.0 - mean * mean;
    };
    EXPECT_GT(rateVariance(0.8), 2.0 * rateVariance(0.05));
}

TEST(Traces, SameSeedSameTrace)
{
    nn::SparsityModel model;
    sim::Rng a(5), b(5);
    EXPECT_EQ(nn::synthesizeActivations({8, 8, 32}, model, a),
              nn::synthesizeActivations({8, 8, 32}, model, b));
}

TEST(Traces, InputSegmentsLinearNetwork)
{
    auto net = nn::zoo::build(nn::zoo::NetId::Alex, 1, 8);
    // conv1's input is the raw image.
    const auto seg1 =
        nn::inputSegments(*net, net->convNodeIds()[0]);
    ASSERT_EQ(seg1.size(), 1u);
    EXPECT_EQ(seg1[0].producerConvIndex, -1);
    // conv2's input is conv1's output (through pool/LRN).
    const auto seg2 =
        nn::inputSegments(*net, net->convNodeIds()[1]);
    ASSERT_EQ(seg2.size(), 1u);
    EXPECT_EQ(seg2[0].producerConvIndex, 0);
}

TEST(Traces, InputSegmentsThroughConcat)
{
    auto net = nn::zoo::build(nn::zoo::NetId::Google, 1, 8);
    // Find a conv whose input crosses a concat (an inception-3b
    // 1x1): it should see four producer segments.
    bool found = false;
    for (int id : net->convNodeIds()) {
        const auto segs = nn::inputSegments(*net, id);
        if (segs.size() == 4) {
            int total = 0;
            for (const auto &s : segs) {
                EXPECT_GE(s.producerConvIndex, 0);
                total += s.depth;
            }
            EXPECT_EQ(total, net->node(id).inShape.z);
            found = true;
            break;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Traces, SynthesizedConvInputMatchesLayerTarget)
{
    auto net = nn::zoo::build(nn::zoo::NetId::Vgg19, 3);
    const int conv3 = net->convNodeIds()[4];
    const NeuronTensor in = nn::synthesizeConvInput(*net, conv3, 42);
    EXPECT_NEAR(tensor::zeroFraction(in),
                net->node(conv3).conv.inputZeroFraction, 0.03);
}

TEST(Traces, PruneThresholdIncreasesZeroFraction)
{
    auto net = nn::zoo::build(nn::zoo::NetId::Alex, 3);
    const int conv3 = net->convNodeIds()[2];
    const NeuronTensor plain = nn::synthesizeConvInput(*net, conv3, 7);
    nn::PruneConfig prune;
    prune.thresholds.assign(net->convLayerCount(), 48);
    const NeuronTensor pruned =
        nn::synthesizeConvInput(*net, conv3, 7, &prune);
    EXPECT_GT(tensor::zeroFraction(pruned), tensor::zeroFraction(plain));
    // Pruned values are exactly the sub-threshold ones.
    for (int y = 0; y < plain.shape().y; ++y)
        for (int x = 0; x < plain.shape().x; ++x)
            for (int z = 0; z < plain.shape().z; ++z) {
                const Fixed16 a = plain.at(x, y, z);
                const Fixed16 b = pruned.at(x, y, z);
                if (a.rawAbs() < 48)
                    EXPECT_TRUE(b.isZero());
                else
                    EXPECT_EQ(a, b);
            }
}

/** FNV-1a (64-bit) over the little-endian raw values of a tensor. */
std::uint64_t
digest(const NeuronTensor &t)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Fixed16 v : t) {
        const auto raw = static_cast<unsigned>(static_cast<std::uint16_t>(v.raw()));
        for (const unsigned byte : {raw & 0xffu, raw >> 8u}) {
            h ^= byte;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

int
convNamed(const nn::Network &net, const std::string &name)
{
    for (int id : net.convNodeIds())
        if (net.node(id).name == name)
            return id;
    ADD_FAILURE() << "no conv named " << name;
    return net.convNodeIds().front();
}

// Synthesized traces feed every pinned cycle count, so their exact
// bits are pinned here: a change to the RNG draw order, the value
// model, the spatial/channel layout or the prune rule shows up as a
// digest mismatch, not as a drifted golden number downstream.
TEST(Traces, SynthesizedConvInputDigestsArePinned)
{
    const auto vgg = nn::zoo::build(nn::zoo::NetId::Vgg19, 2016);
    // The raw-image input (dense segment) and the largest input in
    // the zoo (224x224x64, one conv-fed segment).
    EXPECT_EQ(digest(nn::synthesizeConvInput(
                  *vgg, convNamed(*vgg, "conv1_1"), 2016)),
              0xeaee276b3ad4a6b1ULL);
    EXPECT_EQ(digest(nn::synthesizeConvInput(
                  *vgg, convNamed(*vgg, "conv1_2"), 2016)),
              0x1ec35b8bfdc26074ULL);

    // An inception input: four producer segments through a concat.
    const auto google = nn::zoo::build(nn::zoo::NetId::Google, 2016);
    const int inception = convNamed(*google, "inception_3b/1x1");
    ASSERT_EQ(nn::inputSegments(*google, inception).size(), 4u);
    EXPECT_EQ(digest(nn::synthesizeConvInput(*google, inception, 2017)),
              0x867ee001fcd58e0fULL);

    // The same input with a different threshold per producer.
    nn::PruneConfig prune;
    for (int i = 0; i < google->convLayerCount(); ++i)
        prune.thresholds.push_back(8 + 4 * (i % 8));
    EXPECT_EQ(digest(nn::synthesizeConvInput(*google, inception, 2017,
                                             &prune)),
              0x389caf38d7ad2db2ULL);
}

// The count-only synthesis must reproduce the value path's zero
// pattern exactly: every zoo conv input, at brick sizes that divide
// the depth, straddle segment boundaries (12) and span one element.
// zeroOperandFraction reads the count path, so it is pinned against
// the value-path formula too (exact doubles).
TEST(Traces, CountOnlySynthesisMatchesValuePath)
{
    for (nn::zoo::NetId id : nn::zoo::allNetworks()) {
        const auto net = nn::zoo::build(id, 2016);
        for (std::uint64_t seed : {2016ULL, 7ULL}) {
            double weightedZero = 0.0;
            double totalMacs = 0.0;
            for (int node : net->convNodeIds()) {
                const NeuronTensor values =
                    nn::synthesizeConvInput(*net, node, seed);
                for (int brick : {1, 12, 16, 32})
                    EXPECT_EQ(nn::synthesizeConvInputCounts(*net, node, seed,
                                                            brick),
                              zfnaf::nonZeroCountMap(values, brick))
                        << net->name() << ' ' << net->node(node).name
                        << " seed " << seed << " brick " << brick;
                const double macs =
                    static_cast<double>(net->node(node).macs());
                weightedZero += tensor::zeroFraction(values) * macs;
                totalMacs += macs;
            }
            EXPECT_EQ(nn::zeroOperandFraction(*net, seed),
                      weightedZero / totalMacs)
                << net->name() << " seed " << seed;
        }
    }
}

TEST(Traces, ZeroOperandFractionStableAcrossImages)
{
    auto net = nn::zoo::build(nn::zoo::NetId::CnnS, 3);
    const double f1 = nn::zeroOperandFraction(*net, 1);
    const double f2 = nn::zeroOperandFraction(*net, 2);
    EXPECT_NEAR(f1, f2, 0.02); // Figure 1's small error bars
}

} // namespace
