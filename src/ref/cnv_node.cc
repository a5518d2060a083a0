#include "ref/cnv_node.h"

#include "ref/cnv_unit.h"
#include "zfnaf/format.h"

namespace cnv::ref {

using tensor::Fixed16;
using tensor::NeuronTensor;

namespace {

/** The encoder's dynamic pruning: |v| < threshold becomes zero. */
void
pruneInPlace(NeuronTensor &t, std::int32_t threshold)
{
    if (threshold <= 0)
        return;
    for (Fixed16 &v : t) {
        if (v.rawAbs() < threshold)
            v = Fixed16{};
    }
}

} // namespace

NodeRunResult
CnvNodeModel::run(const nn::Network &net, const NeuronTensor &input,
                  const nn::PruneConfig *prune) const
{
    const ConvStep step = [&](int id, const NeuronTensor &in) {
        const nn::Node &n = net.node(id);
        ConvSimResult conv;
        if (n.convIndex == 0) {
            // First conv layer: raw image, conventional mode.
            conv = simulateConvBaseline(cfg_, n.conv, in, net.weightsOf(id),
                                        net.biasOf(id), true);
        } else {
            // Encoded mode: the producer's encoder wrote this tensor
            // (pruned values already zeroed).
            CnvConvResult encoded = simulateConvCnv(
                cfg_, n.conv, zfnaf::encode(in, cfg_.brickSize),
                net.weightsOf(id), net.biasOf(id));
            conv = {std::move(encoded.timing), std::move(encoded.output)};
        }
        if (prune) {
            pruneInPlace(conv.output,
                         prune->forConvIndex(
                             static_cast<std::size_t>(n.convIndex)));
        }
        return conv;
    };
    return runNetwork(cfg_, net, input, "cnv", step);
}

} // namespace cnv::ref
