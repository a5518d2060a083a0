#include "timing/trace_cache.h"

#include <algorithm>
#include <optional>
#include <string_view>
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

/** A positive threshold zeroes small magnitudes: counting needs values. */
bool
prunesValues(const nn::PruneConfig *prune)
{
    return prune != nullptr && prune->prunesValues();
}

/** Run `compute`, recording its latency in the `histogram` that
 *  hostProfile.traceCache reports, when metrics are on. */
template <typename Fn>
auto
timed(std::string_view histogram, Fn &&compute)
{
    const std::uint64_t t0 = sim::metrics().nowIfEnabled();
    auto result = compute();
    if (t0 != 0)
        sim::metrics().recordNanos(histogram,
                                   sim::MetricsRegistry::nowNanos() - t0);
    return result;
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

std::shared_ptr<TraceCache::CountSlot>
TraceCache::countSlot(const nn::Network &net, int convNodeId,
                      std::uint64_t imageSeed, const nn::PruneConfig *prune,
                      int brickSize)
{
    const core::MutexLock lock(mutex_);
    auto &entry = counts_[sim::strfmt("{}#{}#{}",
                                      tensorKey(net, convNodeId, imageSeed),
                                      pruneKey(prune), brickSize)];
    if (!entry)
        entry = std::make_shared<CountSlot>();
    return entry;
}

std::shared_ptr<const tensor::NeuronTensor>
TraceCache::existingTensor(const nn::Network &net, int convNodeId,
                           std::uint64_t imageSeed)
{
    std::shared_ptr<TensorSlot> slot;
    {
        const core::MutexLock lock(mutex_);
        const auto it = tensors_.find(tensorKey(net, convNodeId, imageSeed));
        if (it == tensors_.end())
            return nullptr;
        slot = it->second;
    }
    const core::MutexLock lock(slot->m);
    return slot->value;
}

std::shared_ptr<const tensor::NeuronTensor>
TraceCache::filledTensor(const nn::Network &net, int convNodeId,
                         std::uint64_t imageSeed,
                         const TraceProvider *traces)
{
    const std::shared_ptr<TensorSlot> slot =
        tensorSlot(net, convNodeId, imageSeed);
    const core::MutexLock lock(slot->m);
    if (!slot->value)
        fill(*slot, net, convNodeId, imageSeed, traces);
    return slot->value;
}

void
TraceCache::fill(TensorSlot &slot, const nn::Network &net, int convNodeId,
                 std::uint64_t imageSeed, const TraceProvider *traces)
{
    slot.value = timed("traceCache.synthesis", [&] {
        std::optional<tensor::NeuronTensor> external;
        if (traces)
            external = traces->convInput(net, convNodeId, imageSeed);
        return std::make_shared<const tensor::NeuronTensor>(
            external ? std::move(*external)
                     : nn::synthesizeConvInput(net, convNodeId, imageSeed,
                                               nullptr));
    });
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

std::shared_ptr<const CountMap>
TraceCache::computeCounts(const tensor::NeuronTensor *tensor,
                          const nn::Network &net, int convNodeId,
                          std::uint64_t imageSeed,
                          const nn::PruneConfig *prune, int brickSize)
{
    if (tensor == nullptr)
        return timed("traceCache.synthesis", [&] {
            return std::make_shared<const CountMap>(
                nn::synthesizeConvInputCounts(net, convNodeId, imageSeed,
                                              brickSize));
        });
    return timed("traceCache.encode", [&] {
        if (!prunesValues(prune))
            return std::make_shared<const CountMap>(
                zfnaf::nonZeroCountMap(*tensor, brickSize));
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
        return std::make_shared<const CountMap>(
            zfnaf::nonZeroCountMap(*tensor, brickSize, segments));
    });
}

void
TraceCache::warm(const nn::Network &net,
                 const std::vector<std::uint64_t> &imageSeeds,
                 const TraceProvider *traces,
                 const std::vector<CountLookup> &lookups)
{
    if (lookups.empty())
        return;
    // Count-only synthesis serves one brick size; several sizes share
    // one value tensor instead of drawing the pattern once per size.
    bool values = traces != nullptr;
    for (const CountLookup &l : lookups)
        values = values || prunesValues(&l.prune) ||
                 l.brickSize != lookups.front().brickSize;

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
        const Job &job = jobs[i];
        const std::shared_ptr<const tensor::NeuronTensor> tensor = values
            ? filledTensor(net, job.node, job.seed, traces)
            : existingTensor(net, job.node, job.seed);
        for (const CountLookup &l : lookups) {
            const std::shared_ptr<CountSlot> slot =
                countSlot(net, job.node, job.seed, &l.prune, l.brickSize);
            const core::MutexLock lock(slot->m);
            if (!slot->value)
                slot->value = computeCounts(tensor.get(), net, job.node,
                                            job.seed, &l.prune,
                                            l.brickSize);
        }
    });
}

std::shared_ptr<const CountMap>
TraceCache::countMap(const nn::Network &net, int convNodeId,
                     std::uint64_t imageSeed, const TraceProvider *traces,
                     const nn::PruneConfig *prune, int brickSize)
{
    const std::shared_ptr<CountSlot> slot =
        countSlot(net, convNodeId, imageSeed, prune, brickSize);
    const core::MutexLock lock(slot->m);
    if (slot->counted) {
        countHits_.fetch_add(1, std::memory_order_relaxed);
        sim::metrics().add("traceCache.countMapHits");
        return slot->value;
    }
    countMisses_.fetch_add(1, std::memory_order_relaxed);
    sim::metrics().add("traceCache.countMapMisses");
    slot->counted = true;
    // A lookup that needs values counts its tensor lookup even when
    // warm() already filled this map, so warming stays invisible to
    // the counters.
    std::shared_ptr<const tensor::NeuronTensor> tensor =
        traces != nullptr || prunesValues(prune)
            ? convInput(net, convNodeId, imageSeed, traces)
            : nullptr;
    if (!slot->value) {
        if (!tensor)
            tensor = existingTensor(net, convNodeId, imageSeed);
        slot->value = computeCounts(tensor.get(), net, convNodeId,
                                    imageSeed, prune, brickSize);
    }
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
