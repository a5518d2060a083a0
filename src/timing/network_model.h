/**
 * @file
 * Fast whole-network timing: runs a network's geometry over
 * synthesized activation traces using the closed-form conv models,
 * producing the same NetworkResult schema as the functional node
 * models. This is the path the paper-scale experiments use (full
 * 224x224 geometries, many images, threshold sweeps).
 */

#ifndef CNV_TIMING_NETWORK_MODEL_H
#define CNV_TIMING_NETWORK_MODEL_H

#include <cstdint>
#include <optional>
#include <string>

#include "dadiannao/config.h"
#include "dadiannao/metrics.h"
#include "dadiannao/other_layers.h"
#include "mem/memory_model.h"
#include "nn/network.h"
#include "timing/conv_model.h"

namespace cnv::timing {

/**
 * What a node's datapath skips: the timing side of an architecture.
 * Each arch::ArchRegistry row carries one; the default is
 * DaDianNao's dense dataflow.
 */
struct Dataflow
{
    /**
     * ZFNAf-encoded activations drained by zero-skipping lanes
     * (CNV's encoder and dispatcher): conv layers past conv1 run
     * convCnv, pruning thresholds reach the encoder, FC layers may
     * skip zeros (NodeConfig::cnvSkipsFcLayers), and banked NM is
     * fetched through per-slice pointers.
     */
    bool encoded = false;
    /**
     * Also step past ineffectual weight bricks (Cnvlutin2) at
     * RunOptions::weightSparsity.
     */
    bool skipsWeights = false;
};

/**
 * Default fraction of ineffectual weight bricks assumed on the
 * synthesized filters for weight-skipping (Cnvlutin2) runs. The
 * synthetic filter banks are Gaussian and carry no exact zeros, so
 * the weight-sparsity knob models the post-pruning regime the
 * Cnvlutin2 paper (arXiv 1705.00125) targets: the fraction of
 * (filter-group, kernel-position, depth-brick) weight bricks whose
 * weights are all ineffectual and can be skipped at dispatch.
 * Override per run via RunOptions::weightSparsity (CLI:
 * `--weight-sparsity`).
 */
inline constexpr double kDefaultWeightSparsity = 0.35;

/**
 * Source of per-layer input activation traces. The default
 * (synthetic, calibrated) generator is used wherever a provider
 * returns nothing — so real traces exported from an actual
 * framework run can replace the synthetic substitution layer by
 * layer (see DirectoryTraceProvider and `cnvsim export-traces`).
 */
class TraceProvider
{
  public:
    virtual ~TraceProvider() = default;

    /**
     * The *unpruned* input tensor of one conv layer for one image,
     * or std::nullopt to fall back to the synthetic generator.
     * Pruning thresholds are applied by the caller.
     */
    virtual std::optional<tensor::NeuronTensor>
    convInput(const nn::Network &net, int convNodeId,
              std::uint64_t imageSeed) const = 0;
};

/**
 * Loads traces from `<dir>/<network>_conv<index>_img<seed>.cnvt`
 * files written with tensor::saveTensorFile; missing files fall
 * back to synthesis.
 */
class DirectoryTraceProvider : public TraceProvider
{
  public:
    explicit DirectoryTraceProvider(std::string dir)
        : dir_(std::move(dir))
    {
    }

    std::optional<tensor::NeuronTensor>
    convInput(const nn::Network &net, int convNodeId,
              std::uint64_t imageSeed) const override;

    /** The path a given layer trace is looked up at. */
    std::string pathFor(const nn::Network &net, int convNodeId,
                        std::uint64_t imageSeed) const;

  private:
    std::string dir_;
};

class TraceCache;

/** Options for a trace-driven network timing run. */
struct RunOptions
{
    /** Seed identifying the "image" (trace instance). */
    std::uint64_t imageSeed = 1;
    /**
     * Dynamic pruning thresholds (encoded dataflows only; the
     * baseline has no encoder and always sees unpruned values).
     */
    const nn::PruneConfig *prune = nullptr;
    /** Optional external activation traces. */
    const TraceProvider *traces = nullptr;
    /**
     * Optional shared trace cache (timing/trace_cache.h): count maps
     * are computed once per (image, layer) across architectures and
     * threads. Without one, the run fetches them through a
     * call-local cache, so both cases take the same path.
     */
    TraceCache *cache = nullptr;
    /**
     * Weight-sparsity knob for Dataflow::skipsWeights (ignored by
     * the other dataflows): fraction of weight bricks that are
     * ineffectual across a filter-group pass and skipped at
     * dispatch. Deterministic per (layer, kernel position, brick,
     * pass) — never per thread or per call — so reports stay
     * byte-identical at any --jobs count. Recorded in the report
     * manifest as `weightSparsity`.
     */
    double weightSparsity = kDefaultWeightSparsity;
    /**
     * Memory-hierarchy model (`--mem`). Ideal — the default — keeps
     * every report byte-identical to a pre-mem build; Banked routes
     * each NM access through a per-run mem::BankedMemory (banked NM +
     * global buffer + DRAM channel). The model instance is created
     * inside simulateNetwork, so runs stay deterministic at any
     * --jobs count.
     */
    mem::Kind memKind = mem::Kind::Ideal;
    /**
     * Geometry for the banked model. A zero `banks` field (the
     * default) derives the geometry from the NodeConfig: banks =
     * nmBanks, nmBytes, dramBytesPerCycle = offchipBytesPerCycle,
     * and sliced fetch on the encoded dataflows. The arch
     * layer overrides this via arch::ArchModel::memGeometry().
     */
    mem::Geometry memGeometry{};
};

/**
 * One count-map lookup: the brick size a run's conv layers are
 * counted at and the prune thresholds that reach its encoder (empty:
 * none). TraceCache::warm fills the lookups a sweep will make.
 */
struct CountLookup
{
    int brickSize = 0;
    nn::PruneConfig prune;
};

/**
 * The count-map lookup simulateNetwork(cfg, net, df, opts) makes for
 * every conv layer: cfg's brick size, and opts.prune on encoded
 * dataflows only (the baseline has no encoder and always sees
 * unpruned values).
 */
CountLookup countLookup(const dadiannao::NodeConfig &cfg, Dataflow df,
                        const RunOptions &opts);

/**
 * Conv layer timing on one dataflow: applies the per-layer
 * encoded/conventional selection (conv1 always conventional, the
 * LayerModePolicy otherwise) and dispatches to the closed-form
 * convBaseline/convCnv models. The returned LayerResult carries the
 * node's name.
 *
 * @param counts Per-brick non-zero counts of the layer's input.
 * @param weightSparsity Ineffectual-weight-brick fraction (used only
 *        when the dataflow skips weights).
 * @param mem Optional memory model the chosen mode's NM accesses
 *        are issued against (the profitable-policy estimates stay
 *        side-effect-free; only the winner touches the model).
 */
dadiannao::LayerResult convLayerTiming(
    const dadiannao::NodeConfig &cfg, Dataflow df, const nn::Node &node,
    const CountMap &counts, double weightSparsity = kDefaultWeightSparsity,
    mem::BankedMemory *mem = nullptr);

/**
 * Fully-connected layer timing on one dataflow: the shared
 * throughput model, or the CNV zero-skipping extension on encoded
 * dataflows when cfg.cnvSkipsFcLayers is set (the input zero
 * fraction is derived from the nearest upstream conv's calibrated
 * target).
 */
dadiannao::LayerResult fcLayerTiming(const dadiannao::NodeConfig &cfg,
                                     Dataflow df, const nn::Network &net,
                                     int nodeId,
                                     dadiannao::OverlapTracker &overlap);

/**
 * Simulate one image through the network on the given dataflow.
 * Conv layers are trace-driven; the first conv layer runs in
 * conventional mode on every dataflow; non-conv layers use the
 * shared throughput model. The result's architecture field is left
 * for the caller (arch::ArchModel stamps its registry id).
 */
dadiannao::NetworkResult simulateNetwork(const dadiannao::NodeConfig &cfg,
                                         const nn::Network &net, Dataflow df,
                                         const RunOptions &opts);

/**
 * Average speedup of CNV over the baseline for a batch of images
 * (ratio of summed cycles, as an execution-time ratio).
 */
double speedup(const dadiannao::NodeConfig &cfg, const nn::Network &net,
               int images, std::uint64_t seedBase,
               const nn::PruneConfig *prune = nullptr);

} // namespace cnv::timing

#endif // CNV_TIMING_NETWORK_MODEL_H
