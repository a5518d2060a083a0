#include "ref/dadiannao_node.h"

#include <optional>

#include "dadiannao/other_layers.h"
#include "nn/ops.h"
#include "sim/logging.h"

namespace cnv::ref {

using dadiannao::LayerResult;
using dadiannao::NodeConfig;
using dadiannao::OverlapTracker;
using dadiannao::StallReason;
using tensor::NeuronTensor;

NodeRunResult
runNetwork(const NodeConfig &cfg, const nn::Network &net,
           const NeuronTensor &input, std::string architecture,
           const ConvStep &conv)
{
    NodeRunResult result;
    result.timing.network = net.name();
    result.timing.architecture = std::move(architecture);

    std::vector<std::optional<NeuronTensor>> outputs(net.nodeCount());
    std::vector<int> uses(net.nodeCount(), 0);
    for (const nn::Node &n : net.nodes())
        for (int in : n.inputs)
            ++uses[in];

    OverlapTracker overlap;

    for (int id = 0; id < net.nodeCount(); ++id) {
        const nn::Node &n = net.node(id);
        NeuronTensor out;
        switch (n.kind) {
          case nn::NodeKind::Input:
            out = input;
            break;
          case nn::NodeKind::Conv: {
            LayerResult loadStall;
            loadStall.name = n.name + ":synapse-load";
            loadStall.cycles = dadiannao::convSynapseLoadCycles(
                cfg, n, overlap, loadStall.energy);
            loadStall.activity.other =
                loadStall.cycles * static_cast<std::uint64_t>(
                                       cfg.nodeLanes());
            loadStall.micro.laneIdleCycles =
                loadStall.cycles * static_cast<std::uint64_t>(cfg.lanes);
            loadStall.micro.stalls[StallReason::SynapseWait] =
                loadStall.micro.laneIdleCycles;
            if (loadStall.cycles > 0)
                result.timing.layers.push_back(loadStall);

            ConvSimResult layer = conv(id, *outputs[n.inputs[0]]);
            layer.timing.name = n.name;
            overlap.deposit(layer.timing.cycles);
            result.timing.layers.push_back(layer.timing);
            out = std::move(layer.output);
            break;
          }
          case nn::NodeKind::Pool:
          case nn::NodeKind::Lrn:
          case nn::NodeKind::Fc:
          case nn::NodeKind::Concat:
          case nn::NodeKind::Softmax: {
            result.timing.layers.push_back(
                dadiannao::otherLayerTiming(cfg, n, overlap));
            switch (n.kind) {
              case nn::NodeKind::Pool:
                out = nn::pool2d(*outputs[n.inputs[0]], n.pool);
                break;
              case nn::NodeKind::Lrn:
                out = nn::lrn(*outputs[n.inputs[0]], n.lrnParams);
                break;
              case nn::NodeKind::Fc:
                out = nn::fullyConnected(*outputs[n.inputs[0]],
                                         net.weightsOf(id), net.biasOf(id),
                                         n.fc);
                break;
              case nn::NodeKind::Concat: {
                std::vector<const NeuronTensor *> ins;
                for (int in : n.inputs)
                    ins.push_back(&*outputs[in]);
                out = nn::concat(ins);
                break;
              }
              case nn::NodeKind::Softmax:
                // Top-1 from the logits (pre-quantised-softmax).
                result.top1 = nn::argmax(*outputs[n.inputs[0]]);
                out = nn::softmax(*outputs[n.inputs[0]]);
                break;
              default:
                CNV_PANIC("unreachable");
            }
            break;
          }
        }
        outputs[id] = std::move(out);
        for (int in : n.inputs) {
            if (--uses[in] == 0)
                outputs[in].reset();
        }
    }

    result.final = *outputs.back();
    if (result.top1 < 0 && result.final.shape().x == 1 &&
        result.final.shape().y == 1) {
        result.top1 = nn::argmax(result.final);
    }
    result.timing.stampTimeline();
    return result;
}

NodeRunResult
BaselineNodeModel::run(const nn::Network &net, const NeuronTensor &input) const
{
    const ConvStep step = [&](int id, const NeuronTensor &in) {
        const nn::Node &n = net.node(id);
        return simulateConvBaseline(cfg_, n.conv, in, net.weightsOf(id),
                                    net.biasOf(id), n.convIndex == 0);
    };
    return runNetwork(cfg_, net, input, "dadiannao", step);
}

} // namespace cnv::ref
