/**
 * @file
 * The ArchModel interface: one architecture variant as a first-class
 * object. A model bundles a stable id (the CLI key and report
 * section name), a display name, the conv/FC/other-layer timing
 * entry points wrapping the closed-form models in src/timing, the
 * calibrated power/area model from src/power, and a node-config
 * validator hook — so the driver, CLI, benches and reports can loop
 * over N architectures instead of hard-coding the baseline/CNV
 * pair. Variants are looked up through the ArchRegistry
 * (arch/registry.h); each built-in is one row of data there, a
 * timing::Dataflow plus a power::Overheads block and optional
 * geometry.
 */

#ifndef CNV_ARCH_ARCH_MODEL_H
#define CNV_ARCH_ARCH_MODEL_H

#include <string>

#include "dadiannao/config.h"
#include "dadiannao/metrics.h"
#include "dadiannao/other_layers.h"
#include "mem/memory_model.h"
#include "nn/network.h"
#include "power/model.h"
#include "timing/network_model.h"

namespace cnv::arch {

/**
 * One architecture variant. Implementations wrap the existing
 * closed-form timing models and the calibrated power model; the
 * driver and CLI only ever see this interface (plus the registry),
 * so adding a variant touches no downstream code.
 */
class ArchModel
{
  public:
    virtual ~ArchModel() = default;

    /** Stable registry id: CLI `--arch` key and report section name. */
    virtual const std::string &id() const = 0;

    /** Human-readable name for tables and logs. */
    virtual const std::string &displayName() const = 0;

    /**
     * This variant's node geometry, derived from a base
     * configuration (parameterized variants override brick size,
     * lane count and NM banking; the canonical models return the
     * base unchanged).
     */
    virtual dadiannao::NodeConfig
    nodeConfig(const dadiannao::NodeConfig &base) const;

    /**
     * Node-config validator hook: throws sim::FatalError when the
     * (already variant-adjusted) configuration cannot be built for
     * this architecture. The default checks the shared NodeConfig
     * invariants; models with extra geometry constraints override
     * this to add their own checks.
     */
    virtual void validateNode(const dadiannao::NodeConfig &cfg) const;

    /**
     * Memory-hierarchy geometry for `--mem banked` runs on this
     * architecture, derived from the (already variant-adjusted)
     * node configuration. The default maps NodeConfig fields
     * directly and fetches through a single unit-wide pointer;
     * variants with per-lane slice pointers (the CNV family)
     * override the sliced-fetch flag from their dataflow.
     */
    virtual mem::Geometry
    memGeometry(const dadiannao::NodeConfig &cfg) const;

    /**
     * Timing entry point: run one image trace through the network on
     * this architecture. Applies nodeConfig()/validateNode() to
     * `base` first; the result's architecture field carries id().
     */
    virtual dadiannao::NetworkResult
    simulateNetwork(const dadiannao::NodeConfig &base,
                    const nn::Network &net,
                    const timing::RunOptions &opts) const = 0;

    /**
     * The count-map lookup simulateNetwork(base, net, opts) makes for
     * every conv layer, so a sweep can warm its trace cache with
     * exactly what its runs read (driver::warmTraceCache). The
     * default counts at nodeConfig(base)'s brick size with
     * opts.prune as given; models that resolve the prune config
     * themselves override it.
     */
    virtual timing::CountLookup
    countLookup(const dadiannao::NodeConfig &base, const nn::Network &net,
                const timing::RunOptions &opts) const;

    /**
     * Conv-layer timing entry point wrapping the closed-form
     * convBaseline/convCnv models (per-layer mode selection
     * included). `cfg` must already be variant-adjusted.
     */
    virtual dadiannao::LayerResult
    convTiming(const dadiannao::NodeConfig &cfg, const nn::Node &node,
               const timing::CountMap &counts) const = 0;

    /**
     * Fully-connected-layer timing entry point (the shared
     * throughput model, or CNV FC zero skipping when enabled).
     */
    virtual dadiannao::LayerResult
    fcTiming(const dadiannao::NodeConfig &cfg, const nn::Network &net,
             int nodeId, dadiannao::OverlapTracker &overlap) const = 0;

    /**
     * Non-conv, non-FC layer timing entry point (pooling, LRN,
     * concat, softmax — identical across the built-in variants).
     */
    virtual dadiannao::LayerResult
    otherTiming(const dadiannao::NodeConfig &cfg, const nn::Node &node,
                dadiannao::OverlapTracker &overlap) const;

    /** Component area breakdown for this architecture (Figure 11). */
    virtual power::AreaBreakdown
    area(const power::PowerParams &p = {}) const = 0;

    /** Average power over a run (Figure 12). */
    virtual power::PowerBreakdown
    power(const dadiannao::EnergyCounters &counters, std::uint64_t cycles,
          const power::PowerParams &p = {}) const = 0;

    /** Delay, energy, EDP, ED^2P for a run (Figure 13). */
    virtual power::RunMetrics
    metrics(const dadiannao::EnergyCounters &counters, std::uint64_t cycles,
            const power::PowerParams &p = {}) const = 0;
};

} // namespace cnv::arch

#endif // CNV_ARCH_ARCH_MODEL_H
