#include "arch/arch_model.h"

#include <memory>
#include <utility>

#include "arch/registry.h"
#include "sim/logging.h"

namespace cnv::arch {

dadiannao::NodeConfig
ArchModel::nodeConfig(const dadiannao::NodeConfig &base) const
{
    return base;
}

void
ArchModel::validateNode(const dadiannao::NodeConfig &cfg) const
{
    cfg.validate();
}

dadiannao::LayerResult
ArchModel::otherTiming(const dadiannao::NodeConfig &cfg,
                       const nn::Node &node,
                       dadiannao::OverlapTracker &overlap) const
{
    return dadiannao::otherLayerTiming(cfg, node, overlap);
}

timing::CountLookup
ArchModel::countLookup(const dadiannao::NodeConfig &base,
                       const nn::Network &,
                       const timing::RunOptions &opts) const
{
    timing::CountLookup lookup;
    lookup.brickSize = nodeConfig(base).brickSize;
    if (opts.prune != nullptr)
        lookup.prune = *opts.prune;
    return lookup;
}

mem::Geometry
ArchModel::memGeometry(const dadiannao::NodeConfig &cfg) const
{
    mem::Geometry geo;
    geo.banks = cfg.nmBanks;
    geo.slicedFetch = false;
    geo.nmBytes = cfg.nmBytes;
    geo.dramBytesPerCycle = cfg.offchipBytesPerCycle;
    return geo;
}

namespace {

/**
 * Nominal uniform pruning threshold for cnv-pruned runs without an
 * explicit PruneConfig: 16 raw Q7.8 units (0.0625), standing in for
 * the per-network lossless search (`cnvsim prune` finds the real
 * thresholds; pass a PruneConfig through RunOptions to use them).
 */
constexpr std::int32_t kDefaultPruneThreshold = 16;

/**
 * One built-in architecture as data: its timing dataflow, its power
 * overheads, an optional geometry override and the cnv-pruned
 * default-threshold behaviour.
 */
struct BuiltinSpec
{
    std::string id;
    std::string displayName;
    timing::Dataflow dataflow{};
    power::Overheads overheads{};
    /** Geometry override: brick = lanes = NM banks; 0 = inherit. */
    int brickSize = 0;
    /** Synthesize default thresholds when a run supplies none. */
    bool defaultPrune = false;
};

/** The built-in variants share one implementation over their spec. */
class BuiltinModel : public ArchModel
{
  public:
    explicit BuiltinModel(BuiltinSpec spec) : spec_(std::move(spec)) {}

    const std::string &
    id() const override
    {
        return spec_.id;
    }

    const std::string &
    displayName() const override
    {
        return spec_.displayName;
    }

    dadiannao::NodeConfig
    nodeConfig(const dadiannao::NodeConfig &base) const override
    {
        dadiannao::NodeConfig cfg = base;
        if (spec_.brickSize > 0) {
            // One lane drains one brick slot, and NM banking follows
            // the lane count (bench_abl_brick_size's sweep geometry).
            cfg.brickSize = spec_.brickSize;
            cfg.lanes = spec_.brickSize;
            cfg.nmBanks = spec_.brickSize;
        }
        return cfg;
    }

    mem::Geometry
    memGeometry(const dadiannao::NodeConfig &cfg) const override
    {
        mem::Geometry geo = ArchModel::memGeometry(cfg);
        // Encoded dataflows fetch through 16 independent per-slice
        // pointers; only the baseline keeps DaDianNao's single
        // unit-wide pointer (Section IV-B2).
        geo.slicedFetch = spec_.dataflow.encoded;
        return geo;
    }

    dadiannao::NetworkResult
    simulateNetwork(const dadiannao::NodeConfig &base,
                    const nn::Network &net,
                    const timing::RunOptions &opts) const override
    {
        const dadiannao::NodeConfig cfg = nodeConfig(base);
        validateNode(cfg);
        nn::PruneConfig defaults;
        timing::RunOptions run = withDefaultPrune(net, opts, defaults);
        if (run.memKind != mem::Kind::Ideal && run.memGeometry.banks == 0)
            run.memGeometry = memGeometry(cfg);
        dadiannao::NetworkResult result =
            timing::simulateNetwork(cfg, net, spec_.dataflow, run);
        result.architecture = spec_.id;
        return result;
    }

    timing::CountLookup
    countLookup(const dadiannao::NodeConfig &base, const nn::Network &net,
                const timing::RunOptions &opts) const override
    {
        nn::PruneConfig defaults;
        return timing::countLookup(nodeConfig(base), spec_.dataflow,
                                   withDefaultPrune(net, opts, defaults));
    }

    dadiannao::LayerResult
    convTiming(const dadiannao::NodeConfig &cfg, const nn::Node &node,
               const timing::CountMap &counts) const override
    {
        return timing::convLayerTiming(cfg, spec_.dataflow, node, counts);
    }

    dadiannao::LayerResult
    fcTiming(const dadiannao::NodeConfig &cfg, const nn::Network &net,
             int nodeId, dadiannao::OverlapTracker &overlap) const override
    {
        return timing::fcLayerTiming(cfg, spec_.dataflow, net, nodeId,
                                     overlap);
    }

    power::AreaBreakdown
    area(const power::PowerParams &p) const override
    {
        return power::areaOf(spec_.overheads, p);
    }

    power::PowerBreakdown
    power(const dadiannao::EnergyCounters &counters, std::uint64_t cycles,
          const power::PowerParams &p) const override
    {
        return power::powerOf(spec_.overheads, counters, cycles, p);
    }

    power::RunMetrics
    metrics(const dadiannao::EnergyCounters &counters, std::uint64_t cycles,
            const power::PowerParams &p) const override
    {
        return power::metricsOf(spec_.overheads, counters, cycles, p);
    }

  private:
    /** `opts`, with the default thresholds (kept in `defaults`) when
     *  this model prunes by default and the run supplies none. */
    timing::RunOptions
    withDefaultPrune(const nn::Network &net, const timing::RunOptions &opts,
                     nn::PruneConfig &defaults) const
    {
        timing::RunOptions run = opts;
        if (spec_.defaultPrune && run.prune == nullptr) {
            defaults.thresholds.assign(
                static_cast<std::size_t>(net.convLayerCount()),
                kDefaultPruneThreshold);
            run.prune = &defaults;
        }
        return run;
    }

    BuiltinSpec spec_;
};

/** CNV's encoded, zero-skipping dataflow. */
constexpr timing::Dataflow kCnvDataflow{.encoded = true};

} // namespace

std::shared_ptr<const ArchModel>
makeCnvVariant(std::string id, std::string displayName, int brickSize)
{
    CNV_ASSERT(brickSize > 0, "CNV variant needs a positive brick size");
    return std::make_shared<BuiltinModel>(BuiltinSpec{
        .id = std::move(id),
        .displayName = std::move(displayName),
        .dataflow = kCnvDataflow,
        .overheads = power::kCnvOverheads,
        .brickSize = brickSize,
    });
}

const ArchRegistry &
builtin()
{
    static const ArchRegistry registry = [] {
        ArchRegistry r;
        const BuiltinSpec rows[] = {
            {.id = "dadiannao", .displayName = "DaDianNao baseline"},
            {.id = "cnv",
             .displayName = "Cnvlutin",
             .dataflow = kCnvDataflow,
             .overheads = power::kCnvOverheads},
            {.id = "cnv2",
             .displayName = "Cnvlutin2 (weight skipping, offset-only ZFNAf)",
             .dataflow = {.encoded = true, .skipsWeights = true},
             .overheads = power::kCnv2Overheads},
            {.id = "cnv-pruned",
             .displayName = "Cnvlutin + dynamic pruning",
             .dataflow = kCnvDataflow,
             .overheads = power::kCnvOverheads,
             .defaultPrune = true},
        };
        for (const BuiltinSpec &row : rows)
            r.add(std::make_shared<BuiltinModel>(row));
        for (int brick : {4, 8, 32})
            r.add(makeCnvVariant(sim::strfmt("cnv-b{}", brick),
                                 sim::strfmt("Cnvlutin ({}-neuron bricks)",
                                             brick),
                                 brick));
        return r;
    }();
    return registry;
}

std::vector<const ArchModel *>
canonicalPair()
{
    const ArchRegistry &r = builtin();
    return {&r.get("dadiannao"), &r.get("cnv")};
}

} // namespace cnv::arch
