/**
 * @file
 * Multi-node scaling model (Section IV-A: "Multiple nodes can be
 * used to process larger DNNs that do not fit in the NM and SBs
 * available in a single node").
 *
 * Convolutional layers scale by *spatial tiling*: each node holds
 * the full filter set (the SB already fits a layer's synapses) and
 * computes a horizontal stripe of every layer's output, so compute
 * scales with ceil(rows/n)/rows and only the stripe boundaries'
 * halo rows ((fy - 1) input rows per boundary) are exchanged over
 * the inter-node links. Fully-connected layers partition their
 * outputs and all-gather the (small) input vector. Exchanges
 * overlap preceding compute; only the exposed remainder stalls.
 * Encoded dataflows exchange ZFNAf (value, offset) pairs, 25% wider
 * per neuron.
 */

#ifndef CNV_TIMING_MULTINODE_H
#define CNV_TIMING_MULTINODE_H

#include <string>

#include "timing/network_model.h"

namespace cnv::timing {

/** Inter-node system parameters. */
struct MultiNodeOptions
{
    /** Nodes in the system (1 = the paper's single-node study). */
    int nodes = 1;
    /**
     * Inter-node broadcast bandwidth in 16-neuron blocks per cycle
     * (all links combined, HyperTransport-class; well below the
     * 1 block/cycle the on-chip NM sustains).
     */
    double broadcastBlocksPerCycle = 0.25;
};

/**
 * Simulate one image on an n-node system of one architecture. With
 * nodes = 1 the cycles are exactly simulateNetwork()'s.
 *
 * @param archId Architecture name; the result is named
 *        "<archId> x<nodes>".
 * @param df The architecture's dataflow.
 */
dadiannao::NetworkResult
simulateMultiNode(const dadiannao::NodeConfig &nodeCfg,
                  const MultiNodeOptions &mn, const nn::Network &net,
                  const std::string &archId, Dataflow df,
                  const RunOptions &opts);

/** Speedup of an n-node system over a single node (same dataflow). */
double multiNodeScaling(const dadiannao::NodeConfig &nodeCfg,
                        const MultiNodeOptions &mn, const nn::Network &net,
                        Dataflow df, std::uint64_t seed);

} // namespace cnv::timing

#endif // CNV_TIMING_MULTINODE_H
