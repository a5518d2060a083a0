#include "driver/driver.h"

#include "sim/logging.h"
#include "sim/metrics.h"
#include "sim/parallel.h"
#include "timing/network_model.h"

namespace cnv::driver {

const ArchAggregate *
NetworkReport::findArch(std::string_view id) const
{
    for (const ArchAggregate &a : archs)
        if (a.model != nullptr && a.model->id() == id)
            return &a;
    return nullptr;
}

const ArchAggregate &
NetworkReport::arch(std::string_view id) const
{
    const ArchAggregate *a = findArch(id);
    if (a == nullptr)
        CNV_FATAL("report for '{}' has no architecture '{}'", name,
                  std::string(id));
    return *a;
}

double
NetworkReport::speedupOf(std::string_view baseId,
                         std::string_view overId) const
{
    return static_cast<double>(arch(baseId).cycles) /
           static_cast<double>(arch(overId).cycles);
}

timing::RunOptions
runOptions(const ExperimentConfig &cfg, const nn::PruneConfig *prune,
           std::uint64_t imageSeed, timing::TraceCache *cache)
{
    timing::RunOptions opts;
    opts.imageSeed = imageSeed;
    opts.prune = prune;
    opts.cache = cache;
    opts.weightSparsity = cfg.weightSparsity;
    opts.memKind = cfg.memKind;
    return opts;
}

void
warmTraceCache(timing::TraceCache &cache, const ExperimentConfig &cfg,
               const nn::Network &net,
               const std::vector<const arch::ArchModel *> &archs,
               const nn::PruneConfig *prune,
               const std::vector<std::uint64_t> &imageSeeds)
{
    const timing::RunOptions opts = runOptions(cfg, prune, cfg.seed, &cache);
    std::vector<timing::CountLookup> lookups;
    for (const arch::ArchModel *model : archs)
        lookups.push_back(model->countLookup(cfg.node, net, opts));
    cache.warm(net, imageSeeds, nullptr, lookups);
}

std::vector<NetworkReport>
evaluateNetworks(const ExperimentConfig &cfg,
                 const std::vector<const nn::Network *> &nets,
                 const std::vector<const arch::ArchModel *> &archs,
                 const nn::PruneConfig *prune, timing::TraceCache *cache)
{
    CNV_ASSERT(!archs.empty(), "need at least one architecture");
    CNV_ASSERT(cfg.images > 0, "need at least one image");
    const auto images = static_cast<std::size_t>(cfg.images);
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < images; ++i)
        seeds.push_back(cfg.seed + static_cast<std::uint64_t>(i));

    std::vector<NetworkReport> reports(nets.size());
    std::string label;
    for (std::size_t n = 0; n < nets.size(); ++n) {
        reports[n].name = nets[n]->name();
        reports[n].images = cfg.images;
        reports[n].archs.resize(archs.size());
        for (std::size_t a = 0; a < archs.size(); ++a)
            reports[n].archs[a].model = archs[a];
        label += (n == 0 ? "" : ",") + nets[n]->name();
    }

    // Without a caller-provided cache the runs still share one for
    // the duration of this sweep, so each image's trace is
    // synthesized once instead of once per architecture.
    timing::TraceCache localCache;
    timing::TraceCache *shared = cache != nullptr ? cache : &localCache;

    // Every run walks the layers in the same order, so without the
    // warm-up the grid's lanes would queue on one layer's synthesis
    // at a time; warming fans the (layer x image) syntheses out first.
    const std::size_t perNet = archs.size() * images;
    sim::metrics().beginProgress(label, nets.size() * perNet);
    for (const nn::Network *net : nets)
        warmTraceCache(*shared, cfg, *net, archs, prune, seeds);

    // Flattened (network x arch x image) grid; the ordered commit
    // sums each aggregate over its images in seed order.
    sim::parallelMapReduce(
        nets.size() * perNet,
        [&](std::size_t g) {
            const std::size_t cell = g % perNet;
            auto run = archs[cell / images]->simulateNetwork(
                cfg.node, *nets[g / perNet],
                runOptions(cfg, prune, seeds[cell % images], shared));
            sim::metrics().tickProgress();
            return run;
        },
        [&](std::size_t g, dadiannao::NetworkResult &&run) {
            ArchAggregate &agg =
                reports[g / perNet].archs[g % perNet / images];
            agg.cycles += run.totalCycles();
            agg.activity += run.totalActivity();
            agg.energy += run.totalEnergy();
            if (run.memModelled) {
                agg.mem += run.totalMem();
                agg.memModelled = true;
            }
        });
    sim::metrics().endProgress();
    return reports;
}

NetworkReport
evaluateNetworkArchs(const ExperimentConfig &cfg, const nn::Network &net,
                     const std::vector<const arch::ArchModel *> &archs,
                     const nn::PruneConfig *prune,
                     timing::TraceCache *cache)
{
    return std::move(evaluateNetworks(cfg, {&net}, archs, prune, cache)[0]);
}

double
meanSpeedup(const std::vector<NetworkReport> &reports)
{
    CNV_ASSERT(!reports.empty(), "no reports");
    double sum = 0.0;
    for (const NetworkReport &r : reports)
        sum += r.speedup();
    return sum / static_cast<double>(reports.size());
}

} // namespace cnv::driver
