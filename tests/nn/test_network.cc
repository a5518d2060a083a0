/** @file Tests for the network graph and calibration. */

#include <gtest/gtest.h>

#include "nn/network.h"
#include "nn/ops.h"
#include "nn/trace.h"
#include "nn/zoo/zoo.h"
#include "sim/error.h"
#include "sim/logging.h"
#include "sim/rng.h"
#include "tensor/neuron_tensor.h"

namespace {

using namespace cnv;
using tensor::Fixed16;
using tensor::NeuronTensor;

nn::ConvParams
conv(int filters, int k, double zf = 0.5)
{
    nn::ConvParams p;
    p.filters = filters;
    p.fx = p.fy = k;
    p.stride = 1;
    p.pad = k / 2;
    p.inputZeroFraction = zf;
    return p;
}

NeuronTensor
smoothInput(tensor::Shape3 shape, std::uint64_t seed)
{
    NeuronTensor t(shape);
    sim::Rng rng(seed);
    for (Fixed16 &v : t)
        v = Fixed16::fromDouble(std::abs(rng.normal(0.5, 0.25)));
    return t;
}

TEST(Network, ShapePropagation)
{
    nn::Network net("t", 1);
    int x = net.addInput({8, 8, 16});
    x = net.addConv("c1", x, conv(32, 3));
    EXPECT_EQ(net.node(x).outShape, (tensor::Shape3{8, 8, 32}));
    nn::PoolParams p;
    p.k = 2;
    p.stride = 2;
    x = net.addPool("p1", x, p);
    EXPECT_EQ(net.node(x).outShape, (tensor::Shape3{4, 4, 32}));
    x = net.addFc("fc", x, nn::FcParams{10, false});
    EXPECT_EQ(net.node(x).outShape, (tensor::Shape3{1, 1, 10}));
}

TEST(Network, ConvIndicesFollowAdditionOrder)
{
    nn::Network net("t", 1);
    int x = net.addInput({4, 4, 16});
    const int c1 = net.addConv("c1", x, conv(16, 1));
    const int c2 = net.addConv("c2", c1, conv(16, 1));
    EXPECT_EQ(net.node(c1).convIndex, 0);
    EXPECT_EQ(net.node(c2).convIndex, 1);
    EXPECT_EQ(net.convLayerCount(), 2);
}

TEST(Network, ForwardMatchesManualComposition)
{
    nn::Network net("t", 2);
    int x = net.addInput({6, 6, 16});
    const int c1 = net.addConv("c1", x, conv(16, 3));
    nn::PoolParams pool;
    pool.k = 2;
    pool.stride = 2;
    net.addPool("p1", c1, pool);

    const NeuronTensor input = smoothInput({6, 6, 16}, 3);
    const auto run = net.forward(input);

    const NeuronTensor conv1 = nn::conv2d(input, net.weightsOf(c1),
                                          net.biasOf(c1),
                                          net.node(c1).conv);
    EXPECT_EQ(run.final, nn::pool2d(conv1, pool));
}

TEST(Network, ForwardIsDeterministicPerSeed)
{
    nn::Network a("t", 5), b("t", 5), c("t", 6);
    for (nn::Network *n : {&a, &b, &c}) {
        int x = n->addInput({4, 4, 16});
        x = n->addConv("c1", x, conv(16, 3));
        n->addFc("fc", x, nn::FcParams{8, false});
    }
    const NeuronTensor input = smoothInput({4, 4, 16}, 9);
    EXPECT_EQ(a.forward(input).final, b.forward(input).final);
    // Different weight seed -> different output.
    EXPECT_FALSE(a.forward(input).final == c.forward(input).final);
}

TEST(Network, CalibrationHitsSparsityTargets)
{
    nn::Network net("t", 7);
    int x = net.addInput({24, 24, 16});
    x = net.addConv("c1", x, conv(64, 3, 0.0));
    x = net.addConv("c2", x, conv(64, 3, 0.5));
    net.addConv("c3", x, conv(64, 3, 0.5));
    net.deriveOutputTargets();
    net.calibrate();

    const NeuronTensor input = smoothInput({24, 24, 16}, 21);
    nn::ForwardOptions opts;
    opts.keepAll = true;
    const auto run = net.forward(input, opts);
    // c1's output feeds c2 (target 0.5); check the realised zero
    // fraction is in the neighbourhood.
    const double zf = tensor::zeroFraction(*run.outputs[1]);
    EXPECT_NEAR(zf, 0.5, 0.12);
}

TEST(Network, PruningZeroesSmallConvOutputs)
{
    nn::Network net("t", 8);
    int x = net.addInput({8, 8, 16});
    net.addConv("c1", x, conv(16, 3, 0.0));
    net.calibrate();

    nn::PruneConfig prune;
    prune.thresholds = {64}; // |v| < 0.25 pruned
    nn::ForwardOptions opts;
    opts.prune = &prune;
    opts.keepAll = true;

    const NeuronTensor input = smoothInput({8, 8, 16}, 22);
    const auto pruned = net.forward(input, opts);
    for (const Fixed16 v : *pruned.outputs[1])
        EXPECT_TRUE(v.isZero() || v.rawAbs() >= 64);
}

TEST(Network, ConcatGraphExecutes)
{
    nn::Network net("t", 9);
    int x = net.addInput({4, 4, 16});
    const int a = net.addConv("a", x, conv(16, 1));
    const int b = net.addConv("b", x, conv(32, 1));
    const int cat = net.addConcat("cat", {a, b});
    EXPECT_EQ(net.node(cat).outShape.z, 48);
    const auto run = net.forward(smoothInput({4, 4, 16}, 30));
    EXPECT_EQ(run.final.shape().z, 48);
}

TEST(Network, WrongInputShapeIsFatal)
{
    sim::setVerbosity(sim::Verbosity::Silent);
    nn::Network net("t", 10);
    net.addInput({4, 4, 8});
    EXPECT_THROW(net.forward(NeuronTensor(3, 3, 8)), sim::FatalError);
    sim::setVerbosity(sim::Verbosity::Info);
}

TEST(Network, ResumedForwardMatchesForward)
{
    // One pass advanced conv by conv, finished from a copy at every
    // conv node, must reproduce forward() bit for bit.
    auto net = nn::zoo::build(nn::zoo::NetId::Google, 5, 16);
    net->calibrate();
    sim::Rng rng(17);
    nn::PruneConfig cfg;
    for (int i = 0; i < net->convLayerCount(); ++i)
        cfg.thresholds.push_back(
            static_cast<std::int32_t>(1 << rng.uniformInt(0, 7)));
    const NeuronTensor image =
        nn::synthesizeImage(net->node(0).outShape, 23);

    for (const bool keepAll : {false, true}) {
        nn::ForwardOptions opts;
        opts.prune = &cfg;
        opts.keepAll = keepAll;
        const nn::ForwardResult whole = net->forward(image, opts);
        nn::ForwardState state = net->begin(image);
        for (const int id : net->convNodeIds()) {
            net->advance(state, opts, id);
            ASSERT_EQ(state.next, id);
            const nn::ForwardResult resumed = net->finish(state, opts);
            EXPECT_EQ(resumed.final, whole.final) << "resumed at " << id;
            EXPECT_EQ(resumed.logits, whole.logits) << "resumed at " << id;
            EXPECT_EQ(resumed.top1, whole.top1) << "resumed at " << id;
            ASSERT_EQ(resumed.outputs.size(), whole.outputs.size());
            for (std::size_t n = 0; n < whole.outputs.size(); ++n)
                EXPECT_EQ(resumed.outputs[n], whole.outputs[n])
                    << "node " << n << " resumed at " << id;
        }
    }
}

TEST(Network, AdvanceCannotRewind)
{
    nn::Network net("rewind", 1);
    const int in = net.addInput({4, 4, 8});
    net.addConv("c1", in, conv(8, 3));
    nn::ForwardState state = net.begin(smoothInput({4, 4, 8}, 3));
    net.advance(state, {}, 2);
    EXPECT_THROW(net.advance(state, {}, 1), sim::PanicError);
}

TEST(Network, MacsCounting)
{
    nn::Network net("t", 11);
    int x = net.addInput({8, 8, 16});
    const int c = net.addConv("c", x, conv(32, 3));
    // Same-padded: 8*8 windows * 3*3*16 per filter * 32 filters.
    EXPECT_EQ(net.node(c).macs(), 8u * 8 * 9 * 16 * 32);
    EXPECT_EQ(net.totalConvMacs(), net.node(c).macs());
}

TEST(Network, GroupedConvMacsHalve)
{
    nn::Network net("t", 12);
    int x = net.addInput({4, 4, 16});
    nn::ConvParams p = conv(32, 3);
    const std::size_t dense = p.macs({4, 4, 16});
    p.groups = 2;
    const std::size_t grouped = p.macs({4, 4, 16});
    EXPECT_EQ(grouped * 2, dense);
    (void)x;
}

} // namespace
