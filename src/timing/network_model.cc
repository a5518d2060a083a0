#include "timing/network_model.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <utility>

#include "dadiannao/other_layers.h"
#include "nn/trace.h"
#include "sim/logging.h"
#include "sim/parallel.h"
#include "tensor/serialize.h"
#include "timing/conv_model.h"
#include "timing/trace_cache.h"
#include "zfnaf/format.h"

namespace cnv::timing {

using dadiannao::LayerResult;
using dadiannao::NetworkResult;
using dadiannao::NodeConfig;
using dadiannao::OverlapTracker;
using dadiannao::StallReason;

std::string
DirectoryTraceProvider::pathFor(const nn::Network &net, int convNodeId,
                                std::uint64_t imageSeed) const
{
    return sim::strfmt("{}/{}_conv{}_img{}.cnvt", dir_, net.name(),
                       net.node(convNodeId).convIndex, imageSeed);
}

std::optional<tensor::NeuronTensor>
DirectoryTraceProvider::convInput(const nn::Network &net, int convNodeId,
                                  std::uint64_t imageSeed) const
{
    const std::string path = pathFor(net, convNodeId, imageSeed);
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return std::nullopt;
    tensor::NeuronTensor t = tensor::loadTensor(is);
    if (t.shape() != net.node(convNodeId).inShape) {
        CNV_FATAL("trace '{}' has shape {}x{}x{}, layer expects {}x{}x{}",
                  path, t.shape().x, t.shape().y, t.shape().z,
                  net.node(convNodeId).inShape.x,
                  net.node(convNodeId).inShape.y,
                  net.node(convNodeId).inShape.z);
    }
    return t;
}

namespace {

/**
 * Zero fraction of a fully-connected layer's input: the calibrated
 * post-activation target of the nearest upstream conv (through
 * pool/LRN/concat/FC-ReLU chains), or 0 when fed by raw data.
 */
double
fcInputZeroFraction(const nn::Network &net, int nodeId)
{
    int id = net.node(nodeId).inputs.empty()
        ? -1 : net.node(nodeId).inputs[0];
    while (id >= 0) {
        const nn::Node &n = net.node(id);
        if (n.kind == nn::NodeKind::Conv)
            return n.outputZeroTarget;
        if (n.kind == nn::NodeKind::Fc)
            return n.outputZeroTarget > 0 ? n.outputZeroTarget : 0.5;
        if (n.inputs.empty())
            return 0.0;
        id = n.inputs[0];
    }
    return 0.0;
}

/** Copy a drained mem::Counters delta into the result-record POD. */
dadiannao::MemTrace
toMemTrace(const mem::Counters &c)
{
    dadiannao::MemTrace m;
    m.nmAccesses = c.nmAccesses;
    m.nmConflictCycles = c.nmConflictCycles;
    m.gbHits = c.gbHits;
    m.gbMisses = c.gbMisses;
    m.gbEvictions = c.gbEvictions;
    m.dramBytes = c.dramBytes;
    m.dramCycles = c.dramCycles;
    return m;
}

/**
 * Extension: CNV-style zero skipping applied to a fully-connected
 * layer. Both the datapath work and the off-chip synapse stream
 * shrink by the input's non-zero fraction (a zero activation's
 * synapse column is never fetched).
 */
dadiannao::LayerResult
fcCnvTiming(const dadiannao::NodeConfig &cfg, const nn::Node &node,
            double zeroFraction, dadiannao::OverlapTracker &overlap)
{
    using dadiannao::LayerResult;
    LayerResult r;
    r.name = node.name + "(cnv-fc)";
    const double nzFrac = 1.0 - std::clamp(zeroFraction, 0.0, 1.0);
    const std::uint64_t volume = node.inShape.volume();
    const auto nzVolume = static_cast<std::uint64_t>(
        static_cast<double>(volume) * nzFrac + 0.5);

    const std::uint64_t passes =
        (node.fc.outputs + cfg.parallelFilters() - 1) /
        cfg.parallelFilters();
    const std::uint64_t compute =
        passes * ((nzVolume + cfg.lanes - 1) / cfg.lanes);
    const std::uint64_t bytes = static_cast<std::uint64_t>(
        static_cast<double>(node.synapses() * 2) * nzFrac + 0.5);
    r.energy.offchipBytes += bytes;
    const std::uint64_t load =
        (bytes + cfg.offchipBytesPerCycle - 1) / cfg.offchipBytesPerCycle;
    const std::uint64_t exposed = overlap.expose(load);
    r.cycles = std::max(compute, exposed);
    r.activity.other =
        r.cycles * static_cast<std::uint64_t>(cfg.nodeLanes());
    r.micro.laneBusyCycles =
        std::min(compute, r.cycles) * static_cast<std::uint64_t>(cfg.lanes);
    r.micro.laneIdleCycles =
        (r.cycles - std::min(compute, r.cycles)) *
        static_cast<std::uint64_t>(cfg.lanes);
    r.micro.stalls[StallReason::SynapseWait] = r.micro.laneIdleCycles;
    r.energy.sbReads += bytes / 32; // 16-synapse (32-byte) fetches
    r.energy.multOps += static_cast<std::uint64_t>(
        static_cast<double>(node.fc.macs(node.inShape)) * nzFrac);
    r.energy.addOps = r.energy.multOps;
    r.energy.nmReads += nzVolume * passes / cfg.lanes;
    overlap.deposit(r.cycles);
    return r;
}

} // namespace

LayerResult
convLayerTiming(const NodeConfig &cfg, Dataflow df, const nn::Node &node,
                const CountMap &counts, double weightSparsity,
                mem::MemoryModel *mem)
{
    const double ws = df.skipsWeights ? weightSparsity : 0.0;
    const auto encodedTiming = [&](mem::MemoryModel *m) {
        return convCnv(cfg, node.conv, node.inShape, counts, m,
                       node.convIndex, ws);
    };
    LayerResult conv;
    if (!df.encoded || node.convIndex == 0) {
        conv = convBaseline(cfg, node.conv, node.inShape, counts,
                            node.convIndex == 0, mem);
    } else if (cfg.layerModePolicy ==
               dadiannao::LayerModePolicy::Profitable) {
        // Software sets the per-layer encoded/conventional flag;
        // with the profitable policy it picks the cheaper of the
        // two (estimable from the encoder's non-zero counts of the
        // previous layer). Both estimates stay side-effect-free
        // (no memory model); only the winning mode replays its
        // accesses against the real model, so its state advances
        // exactly once per layer.
        LayerResult encoded = encodedTiming(nullptr);
        LayerResult conventional =
            convBaseline(cfg, node.conv, node.inShape, counts, false);
        if (encoded.cycles <= conventional.cycles)
            conv = mem ? encodedTiming(mem) : std::move(encoded);
        else
            conv = mem ? convBaseline(cfg, node.conv, node.inShape,
                                      counts, false, mem)
                       : std::move(conventional);
    } else {
        conv = encodedTiming(mem);
    }
    conv.name = node.name;
    return conv;
}

LayerResult
fcLayerTiming(const NodeConfig &cfg, Dataflow df, const nn::Network &net,
              int nodeId, OverlapTracker &overlap)
{
    const nn::Node &n = net.node(nodeId);
    if (df.encoded && cfg.cnvSkipsFcLayers)
        return fcCnvTiming(cfg, n, fcInputZeroFraction(net, nodeId),
                           overlap);
    return dadiannao::otherLayerTiming(cfg, n, overlap);
}

NetworkResult
simulateNetwork(const NodeConfig &cfg, const nn::Network &net, Dataflow df,
                const RunOptions &opts)
{
    cfg.validate();

    NetworkResult result;
    result.network = net.name();

    // One model instance per simulateNetwork call (per arch x image
    // task): components lock internally, but single-owner use keeps
    // runs deterministic at any --jobs count.
    mem::Geometry memGeo = opts.memGeometry;
    std::unique_ptr<mem::MemoryModel> memModel;
    if (opts.memKind != mem::Kind::Ideal) {
        if (memGeo.banks == 0) {
            memGeo.banks = cfg.nmBanks;
            memGeo.slicedFetch = df.encoded;
            memGeo.nmBytes = cfg.nmBytes;
            memGeo.dramBytesPerCycle = cfg.offchipBytesPerCycle;
        }
        memModel = mem::makeMemoryModel(opts.memKind, memGeo);
        result.memModelled = true;
    }
    // Fold the model's per-layer counter delta into the layer just
    // pushed (also resets the global buffer at the boundary).
    const auto drainInto = [&] {
        if (memModel && !result.layers.empty())
            result.layers.back().mem += toMemTrace(memModel->drainLayer());
    };

    OverlapTracker overlap;

    for (int id = 0; id < net.nodeCount(); ++id) {
        const nn::Node &n = net.node(id);
        switch (n.kind) {
          case nn::NodeKind::Input:
            break;
          case nn::NodeKind::Conv: {
            LayerResult loadStall;
            loadStall.name = n.name + ":synapse-load";
            loadStall.cycles = dadiannao::convSynapseLoadCycles(
                cfg, n, overlap, loadStall.energy);
            loadStall.activity.other =
                loadStall.cycles *
                static_cast<std::uint64_t>(cfg.nodeLanes());
            // Exposed load time: every lane waits on the stream.
            loadStall.micro.laneIdleCycles =
                loadStall.cycles * static_cast<std::uint64_t>(cfg.lanes);
            loadStall.micro.stalls[StallReason::SynapseWait] =
                loadStall.micro.laneIdleCycles;
            // Synapse traffic goes through the DRAM channel; its
            // wait time is already modelled by the OverlapTracker,
            // so only the traffic counters are kept. When the load
            // is fully hidden (no layer pushed) the traffic drains
            // into the conv layer below instead.
            if (memModel && loadStall.energy.offchipBytes > 0)
                memModel->dramTransfer(loadStall.energy.offchipBytes);
            if (loadStall.cycles > 0) {
                result.layers.push_back(loadStall);
                drainInto();
            }

            // The baseline's cycle count is content-independent, but
            // its zero/non-zero activity split is not, so both
            // architectures consume the same trace (external when a
            // provider supplies one, synthetic otherwise). Pruning
            // only reaches the encoder; the baseline always sees
            // unpruned values.
            const nn::PruneConfig *prune = df.encoded ? opts.prune : nullptr;
            std::shared_ptr<const CountMap> cached;
            CountMap local;
            if (opts.cache) {
                cached = opts.cache->countMap(net, id, opts.imageSeed,
                                              opts.traces, prune,
                                              cfg.brickSize);
            } else {
                tensor::NeuronTensor in;
                std::optional<tensor::NeuronTensor> external;
                if (opts.traces)
                    external =
                        opts.traces->convInput(net, id, opts.imageSeed);
                if (external) {
                    in = std::move(*external);
                    if (prune)
                        nn::applyPruneToConvInput(net, id, in, *prune);
                } else {
                    in = nn::synthesizeConvInput(net, id, opts.imageSeed,
                                                 prune);
                }
                local = zfnaf::nonZeroCountMap(in, cfg.brickSize);
            }
            const CountMap &counts = cached ? *cached : local;

            LayerResult conv = convLayerTiming(cfg, df, n, counts,
                                               opts.weightSparsity,
                                               memModel.get());
            overlap.deposit(conv.cycles);
            result.layers.push_back(conv);
            drainInto();

            // Activations past the NM capacity spill off-chip: a
            // whole-node wait on the DRAM channel, reported as its
            // own pseudo-layer like the synapse loads above.
            if (memModel) {
                const std::uint64_t actBytes =
                    (n.inShape.volume() +
                     n.conv.outputShape(n.inShape).volume()) * 2;
                if (actBytes > memGeo.nmBytes) {
                    const std::uint64_t spillBytes =
                        actBytes - memGeo.nmBytes;
                    LayerResult spill;
                    spill.name = n.name + ":dram-spill";
                    spill.cycles = memModel->dramTransfer(spillBytes);
                    spill.energy.offchipBytes += spillBytes;
                    spill.activity.other =
                        spill.cycles *
                        static_cast<std::uint64_t>(cfg.nodeLanes());
                    spill.micro.laneIdleCycles =
                        spill.cycles *
                        static_cast<std::uint64_t>(cfg.lanes);
                    spill.micro.stalls[StallReason::DramWait] =
                        spill.micro.laneIdleCycles;
                    if (spill.cycles > 0) {
                        result.layers.push_back(spill);
                        drainInto();
                    }
                }
            }
            break;
          }
          case nn::NodeKind::Fc:
            result.layers.push_back(
                fcLayerTiming(cfg, df, net, id, overlap));
            if (memModel) {
                // FC synapse traffic (already overlap-timed).
                const std::uint64_t bytes =
                    result.layers.back().energy.offchipBytes;
                if (bytes > 0)
                    memModel->dramTransfer(bytes);
                drainInto();
            }
            break;
          default:
            result.layers.push_back(
                dadiannao::otherLayerTiming(cfg, n, overlap));
            drainInto();
            break;
        }
    }
    result.stampTimeline();
    return result;
}

double
speedup(const NodeConfig &cfg, const nn::Network &net, int images,
        std::uint64_t seedBase, const nn::PruneConfig *prune)
{
    CNV_ASSERT(images > 0, "need at least one image");
    // One cache for the batch: baseline and CNV share each image's
    // synthesized tensor instead of generating it twice.
    TraceCache cache;
    std::vector<std::uint64_t> seeds;
    for (int i = 0; i < images; ++i)
        seeds.push_back(seedBase + static_cast<std::uint64_t>(i));
    cache.warm(net, seeds, nullptr);
    std::uint64_t base = 0, cnvCycles = 0;
    sim::parallelMapReduce(
        static_cast<std::size_t>(images),
        [&](std::size_t i) {
            RunOptions opts;
            opts.imageSeed = seedBase + static_cast<std::uint64_t>(i);
            opts.prune = prune;
            opts.cache = &cache;
            return std::pair<std::uint64_t, std::uint64_t>(
                simulateNetwork(cfg, net, Dataflow{}, opts).totalCycles(),
                simulateNetwork(cfg, net, Dataflow{.encoded = true}, opts)
                    .totalCycles());
        },
        [&](std::size_t, std::pair<std::uint64_t, std::uint64_t> &&r) {
            base += r.first;
            cnvCycles += r.second;
        });
    return static_cast<double>(base) / static_cast<double>(cnvCycles);
}

} // namespace cnv::timing
