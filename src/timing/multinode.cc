#include "timing/multinode.h"

#include <algorithm>

#include "dadiannao/other_layers.h"
#include "sim/logging.h"

namespace cnv::timing {

using dadiannao::NetworkResult;
using dadiannao::NodeConfig;

NetworkResult
simulateMultiNode(const NodeConfig &nodeCfg, const MultiNodeOptions &mn,
                  const nn::Network &net, const std::string &archId,
                  Dataflow df, const RunOptions &opts)
{
    if (mn.nodes < 1)
        CNV_FATAL("need at least one node, got {}", mn.nodes);
    if (mn.broadcastBlocksPerCycle <= 0.0)
        CNV_FATAL("inter-node bandwidth must be positive");

    NetworkResult result = simulateNetwork(nodeCfg, net, df, opts);
    result.architecture = sim::strfmt("{} x{}", archId, mn.nodes);
    if (mn.nodes == 1)
        return result;

    // Spatial tiling: every node holds all synapses (the SB already
    // fits a layer's filters) and computes a horizontal stripe of
    // each layer's output, so compute scales with ceil(rows/n)/rows.
    // Between layers a node needs only the halo rows of its stripe
    // from its neighbours — (fy - 1) input rows per boundary — and
    // fully-connected layers all-gather their (small) input vector.
    // Exchanges overlap preceding compute; the exposed remainder
    // stalls. Encoded dataflows exchange ZFNAf (value, offset) pairs,
    // 25% wider.
    const double widthScale = df.encoded ? 1.25 : 1.0;
    const int n = mn.nodes;
    dadiannao::OverlapTracker overlap;
    const std::uint64_t nodeLanes =
        static_cast<std::uint64_t>(nodeCfg.nodeLanes());

    auto exchangeCyclesFor = [&](std::uint64_t neurons) {
        return static_cast<std::uint64_t>(
            static_cast<double>(neurons) * widthScale /
            (16.0 * mn.broadcastBlocksPerCycle));
    };

    std::vector<dadiannao::LayerResult> adjusted;
    adjusted.reserve(result.layers.size() * 2);

    for (dadiannao::LayerResult layer : result.layers) {
        const bool isLoad =
            layer.name.find(":synapse-load") != std::string::npos;
        const nn::Node *node = nullptr;
        if (!isLoad) {
            for (const nn::Node &candidate : net.nodes()) {
                if (candidate.name == layer.name &&
                    candidate.kind != nn::NodeKind::Input) {
                    node = &candidate;
                    break;
                }
            }
        }

        std::uint64_t exchange = 0;
        if (node) {
            switch (node->kind) {
              case nn::NodeKind::Conv: {
                // Stripe the output rows; scale compute accordingly.
                const int rows = node->outShape.y;
                const int perNode = (rows + n - 1) / n;
                layer.cycles = layer.cycles *
                                   static_cast<std::uint64_t>(perNode) /
                                   static_cast<std::uint64_t>(rows) +
                               1;
                const std::uint64_t haloRows = std::min(
                    node->inShape.y,
                    (node->conv.fy - 1) * std::min(n - 1, rows));
                exchange = exchangeCyclesFor(
                    haloRows * static_cast<std::uint64_t>(
                                   node->inShape.x) *
                    node->inShape.z);
                break;
              }
              case nn::NodeKind::Pool:
              case nn::NodeKind::Lrn:
              case nn::NodeKind::Softmax:
              case nn::NodeKind::Concat: {
                const int rows = std::max(1, node->outShape.y);
                const int perNode = (rows + n - 1) / n;
                layer.cycles = layer.cycles *
                                   static_cast<std::uint64_t>(perNode) /
                                   static_cast<std::uint64_t>(rows) +
                               (layer.cycles ? 1 : 0);
                break;
              }
              case nn::NodeKind::Fc:
                // Outputs partition across nodes; the input vector
                // is all-gathered first.
                layer.cycles = layer.cycles / n + 1;
                exchange = exchangeCyclesFor(node->inShape.volume());
                break;
              default:
                break;
            }
        }

        if (exchange > 0) {
            const std::uint64_t exposed = overlap.expose(exchange);
            if (exposed > 0) {
                dadiannao::LayerResult stall;
                stall.name = layer.name + ":halo-exchange";
                stall.cycles = exposed;
                stall.activity.other = exposed * nodeLanes;
                adjusted.push_back(std::move(stall));
            }
        }
        overlap.deposit(layer.cycles);
        adjusted.push_back(std::move(layer));
    }
    result.layers = std::move(adjusted);
    return result;
}

double
multiNodeScaling(const NodeConfig &nodeCfg, const MultiNodeOptions &mn,
                 const nn::Network &net, Dataflow df, std::uint64_t seed)
{
    RunOptions opts;
    opts.imageSeed = seed;
    MultiNodeOptions one = mn;
    one.nodes = 1;
    const auto single =
        simulateMultiNode(nodeCfg, one, net, "", df, opts).totalCycles();
    const auto multi =
        simulateMultiNode(nodeCfg, mn, net, "", df, opts).totalCycles();
    return static_cast<double>(single) / static_cast<double>(multi);
}

} // namespace cnv::timing
