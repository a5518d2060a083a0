/**
 * @file
 * Experiment driver: the orchestration layer shared by cnvsim and the
 * bench binaries. Runs image batches of a set of networks on any set
 * of registered architecture models (arch/registry.h) as one sweep,
 * and aggregates cycles / activity / energy into per-network,
 * per-architecture reports.
 */

#ifndef CNV_DRIVER_DRIVER_H
#define CNV_DRIVER_DRIVER_H

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "arch/registry.h"
#include "dadiannao/config.h"
#include "dadiannao/metrics.h"
#include "mem/memory_model.h"
#include "nn/network.h"
#include "timing/network_model.h"
#include "timing/trace_cache.h"

namespace cnv::driver {

/** Common experiment parameters. */
struct ExperimentConfig
{
    dadiannao::NodeConfig node;
    /** Images (trace seeds) per network for timing experiments. */
    int images = 4;
    /** Root seed. */
    std::uint64_t seed = 2016;
    /** Reduction factor for accuracy-study network variants. */
    int accuracyScale = 8;
    /** Cnv2 weight-sparsity knob (timing::RunOptions::weightSparsity);
     *  ignored by architectures without weight skipping. */
    double weightSparsity = timing::kDefaultWeightSparsity;
    /** Memory-hierarchy model (`--mem`): Ideal keeps pre-mem
     *  reports byte-identical, Banked simulates NM banking, the
     *  global buffer and the DRAM channel. */
    mem::Kind memKind = mem::Kind::Ideal;
};

/** One architecture's aggregate over a network's image batch. */
struct ArchAggregate
{
    /** The model that produced these numbers (registry-owned). */
    const arch::ArchModel *model = nullptr;
    std::uint64_t cycles = 0; ///< summed over images
    dadiannao::Activity activity;
    dadiannao::EnergyCounters energy;
    /** Memory-hierarchy counters summed over images (`--mem banked`
     *  runs only; all zero with memModelled false otherwise). */
    dadiannao::MemTrace mem;
    bool memModelled = false;

    const std::string &id() const { return model->id(); }
};

/**
 * Aggregated results for one network, keyed by architecture in
 * selection order. The canonical comparison (the paper's headline
 * speedup) is dadiannao over cnv; reports covering other selections
 * use speedupOf() with explicit ids.
 */
struct NetworkReport
{
    std::string name;
    int images = 0;
    /** Per-architecture aggregates, in selection order. */
    std::vector<ArchAggregate> archs;

    /** The aggregate for an architecture id, or nullptr. */
    const ArchAggregate *findArch(std::string_view id) const;

    /** The aggregate for an architecture id; fatal when absent. */
    const ArchAggregate &arch(std::string_view id) const;

    /** Cycle ratio of `baseId` over `overId` (execution-time gain). */
    double speedupOf(std::string_view baseId, std::string_view overId) const;

    /** The canonical dadiannao-over-cnv speedup. */
    double
    speedup() const
    {
        return speedupOf("dadiannao", "cnv");
    }
};

/**
 * The options of one (arch x image) run of an experiment: `cfg`'s
 * weight sparsity and memory model, `prune`, and the shared `cache`.
 */
timing::RunOptions runOptions(const ExperimentConfig &cfg,
                              const nn::PruneConfig *prune,
                              std::uint64_t imageSeed,
                              timing::TraceCache *cache);

/**
 * Fill `cache` ahead of the (archs x imageSeeds) runs of `net`: each
 * model's count-map lookup (arch::ArchModel::countLookup), and the
 * value tensors when one of them needs values, so none of the runs
 * synthesizes (timing::TraceCache::warm).
 */
void warmTraceCache(timing::TraceCache &cache, const ExperimentConfig &cfg,
                    const nn::Network &net,
                    const std::vector<const arch::ArchModel *> &archs,
                    const nn::PruneConfig *prune,
                    const std::vector<std::uint64_t> &imageSeeds);

/**
 * Run `cfg.images` traces of every network in `nets` through every
 * selected architecture model (optionally with dynamic pruning; the
 * models decide whether to honour it) and return one report per
 * network, in input order. The cache is warmed one network at a
 * time, then the whole (network x arch x image) grid fans out over
 * sim::globalPool(); aggregates commit in grid order, so the reports
 * are bit-identical for every job count. Runs share `cache` when
 * given (one synthesized trace per image across all architectures);
 * a local cache is used otherwise. The networks must have distinct
 * names (timing::TraceCache keys by name).
 */
std::vector<NetworkReport> evaluateNetworks(
    const ExperimentConfig &cfg, const std::vector<const nn::Network *> &nets,
    const std::vector<const arch::ArchModel *> &archs,
    const nn::PruneConfig *prune = nullptr,
    timing::TraceCache *cache = nullptr);

/** evaluateNetworks() of one network. */
NetworkReport evaluateNetworkArchs(
    const ExperimentConfig &cfg, const nn::Network &net,
    const std::vector<const arch::ArchModel *> &archs,
    const nn::PruneConfig *prune = nullptr,
    timing::TraceCache *cache = nullptr);

/** Arithmetic mean of the canonical speedups (the paper averages so). */
double meanSpeedup(const std::vector<NetworkReport> &reports);

} // namespace cnv::driver

#endif // CNV_DRIVER_DRIVER_H
