#include "timing/trace_cache.h"

#include <algorithm>
#include <utility>

#include "nn/trace.h"
#include "sim/logging.h"
#include "sim/metrics.h"
#include "sim/parallel.h"
#include "zfnaf/format.h"

namespace cnv::timing {

namespace {

std::string
tensorKey(const nn::Network &net, int convNodeId, std::uint64_t imageSeed)
{
    return sim::strfmt("{}#{}#{}", net.name(), convNodeId, imageSeed);
}

/** Stable text form of a prune config ("-" when absent/empty). */
std::string
pruneKey(const nn::PruneConfig *prune)
{
    if (!prune || prune->thresholds.empty())
        return "-";
    std::string key;
    for (std::int32_t t : prune->thresholds) {
        if (!key.empty())
            key += ',';
        key += std::to_string(t);
    }
    return key;
}

} // namespace

std::shared_ptr<TraceCache::TensorSlot>
TraceCache::tensorSlot(const nn::Network &net, int convNodeId,
                       std::uint64_t imageSeed)
{
    const core::MutexLock lock(mutex_);
    auto &entry = tensors_[tensorKey(net, convNodeId, imageSeed)];
    if (!entry)
        entry = std::make_shared<TensorSlot>();
    return entry;
}

void
TraceCache::fill(TensorSlot &slot, const nn::Network &net, int convNodeId,
                 std::uint64_t imageSeed, const TraceProvider *traces)
{
    // The synthesis (or trace-load) cost every lookup of this key
    // amortizes; its latency distribution feeds
    // hostProfile.traceCache.synthesis.
    const std::uint64_t t0 = sim::metrics().nowIfEnabled();
    std::optional<tensor::NeuronTensor> external;
    if (traces)
        external = traces->convInput(net, convNodeId, imageSeed);
    slot.value = std::make_shared<const tensor::NeuronTensor>(
        external ? std::move(*external)
                 : nn::synthesizeConvInput(net, convNodeId, imageSeed,
                                           nullptr));
    if (t0 != 0)
        sim::metrics().recordNanos(
            "traceCache.synthesis",
            sim::MetricsRegistry::nowNanos() - t0);
}

std::shared_ptr<const tensor::NeuronTensor>
TraceCache::convInput(const nn::Network &net, int convNodeId,
                      std::uint64_t imageSeed, const TraceProvider *traces)
{
    const std::shared_ptr<TensorSlot> slot =
        tensorSlot(net, convNodeId, imageSeed);
    const core::MutexLock lock(slot->m);
    if (slot->counted) {
        tensorHits_.fetch_add(1, std::memory_order_relaxed);
        sim::metrics().add("traceCache.tensorHits");
        return slot->value;
    }
    tensorMisses_.fetch_add(1, std::memory_order_relaxed);
    sim::metrics().add("traceCache.tensorMisses");
    if (!slot->value)
        fill(*slot, net, convNodeId, imageSeed, traces);
    slot->counted = true;
    return slot->value;
}

void
TraceCache::warm(const nn::Network &net,
                 const std::vector<std::uint64_t> &imageSeeds,
                 const TraceProvider *traces)
{
    struct Job
    {
        int node;
        std::uint64_t seed;
    };
    std::vector<Job> jobs;
    for (int id : net.convNodeIds())
        for (std::uint64_t seed : imageSeeds)
            jobs.push_back({id, seed});
    std::stable_sort(jobs.begin(), jobs.end(),
                     [&](const Job &a, const Job &b) {
                         return net.node(a.node).inShape.volume() >
                                net.node(b.node).inShape.volume();
                     });
    sim::parallelFor(jobs.size(), [&](std::size_t i) {
        const std::shared_ptr<TensorSlot> slot =
            tensorSlot(net, jobs[i].node, jobs[i].seed);
        const core::MutexLock lock(slot->m);
        if (!slot->value)
            fill(*slot, net, jobs[i].node, jobs[i].seed, traces);
    });
}

std::shared_ptr<const CountMap>
TraceCache::countMap(const nn::Network &net, int convNodeId,
                     std::uint64_t imageSeed, const TraceProvider *traces,
                     const nn::PruneConfig *prune, int brickSize)
{
    std::shared_ptr<Slot<CountMap>> slot;
    {
        const core::MutexLock lock(mutex_);
        auto &entry = counts_[sim::strfmt(
            "{}#{}#{}", tensorKey(net, convNodeId, imageSeed),
            pruneKey(prune), brickSize)];
        if (!entry)
            entry = std::make_shared<Slot<CountMap>>();
        slot = entry;
    }
    const core::MutexLock lock(slot->m);
    if (slot->value) {
        countHits_.fetch_add(1, std::memory_order_relaxed);
        sim::metrics().add("traceCache.countMapHits");
        return slot->value;
    }
    countMisses_.fetch_add(1, std::memory_order_relaxed);
    sim::metrics().add("traceCache.countMapMisses");
    const std::shared_ptr<const tensor::NeuronTensor> unpruned =
        convInput(net, convNodeId, imageSeed, traces);
    // Timed after the nested tensor lookup so the encode histogram
    // (hostProfile.traceCache.encode) measures only the prune +
    // non-zero-count work, not a first-touch synthesis underneath.
    const std::uint64_t t0 = sim::metrics().nowIfEnabled();
    if (prune) {
        // Segmented counting folds the per-producer thresholds into
        // the count predicate — same counts as prune-then-count,
        // without copying the tensor.
        std::vector<zfnaf::DepthThreshold> segments;
        for (const nn::TraceSegment &seg :
             nn::inputSegments(net, convNodeId)) {
            const std::int32_t threshold = seg.producerConvIndex >= 0
                ? prune->forConvIndex(
                      static_cast<std::size_t>(seg.producerConvIndex))
                : 0;
            segments.push_back({seg.depth, threshold});
        }
        slot->value = std::make_shared<const CountMap>(
            zfnaf::nonZeroCountMap(*unpruned, brickSize, segments));
    } else {
        slot->value = std::make_shared<const CountMap>(
            zfnaf::nonZeroCountMap(*unpruned, brickSize));
    }
    if (t0 != 0)
        sim::metrics().recordNanos("traceCache.encode",
                                   sim::MetricsRegistry::nowNanos() - t0);
    return slot->value;
}

TraceCache::Stats
TraceCache::stats() const
{
    Stats s;
    s.tensorHits = tensorHits_.load(std::memory_order_relaxed);
    s.tensorMisses = tensorMisses_.load(std::memory_order_relaxed);
    s.countMapHits = countHits_.load(std::memory_order_relaxed);
    s.countMapMisses = countMisses_.load(std::memory_order_relaxed);
    return s;
}

} // namespace cnv::timing
