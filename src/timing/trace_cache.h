/**
 * @file
 * Shared, thread-safe cache of per-image conv-layer traces. Every
 * simulateNetwork() call needs the layer's input tensor and its
 * per-brick non-zero count map; without a cache a six-architecture
 * registry sweep synthesizes (or loads) the identical tensor six
 * times per image. The cache stores the *unpruned* tensor keyed by
 * (network, node, image seed) — synthesis with pruning is exactly
 * synthesis-unpruned followed by nn::applyPruneToConvInput, so one
 * tensor serves baseline, CNV and every pruned variant — and the
 * derived count maps keyed additionally by prune thresholds and
 * brick size.
 *
 * Thread safety: a global mutex guards only the key -> slot maps;
 * each slot carries its own mutex, so two threads asking for the
 * same missing key serialize on that slot (one computes, the other
 * waits and hits) while different keys proceed concurrently. Hit
 * and miss totals are therefore deterministic: misses == distinct
 * keys ever requested, independent of the job count.
 *
 * warm() fills tensor slots ahead of the lookups, fanned out over the
 * pool, without touching the counters: each tensor slot remembers
 * whether a lookup has counted it yet, so the first counted lookup
 * of a key is still its miss whether or not the key was warmed.
 *
 * One cache assumes one TraceProvider (or none) for its lifetime;
 * callers pass the provider per lookup only so the cache does not
 * own it.
 */

#ifndef CNV_TIMING_TRACE_CACHE_H
#define CNV_TIMING_TRACE_CACHE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sync.h"
#include "nn/network.h"
#include "timing/network_model.h"

namespace cnv::timing {

class TraceCache
{
  public:
    /** Snapshot of the hit/miss counters (cnv-report-v1 summary.cache). */
    struct Stats
    {
        std::uint64_t tensorHits = 0;
        std::uint64_t tensorMisses = 0;
        std::uint64_t countMapHits = 0;
        std::uint64_t countMapMisses = 0;

        friend bool operator==(const Stats &, const Stats &) = default;
    };

    TraceCache() = default;
    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;

    /**
     * The unpruned input tensor of one conv layer for one image:
     * the provider's trace when it supplies one, synthesized
     * otherwise. Identical to the tensor simulateNetwork() built
     * inline before the cache existed.
     */
    std::shared_ptr<const tensor::NeuronTensor>
    convInput(const nn::Network &net, int convNodeId,
              std::uint64_t imageSeed, const TraceProvider *traces);

    /**
     * Per-brick non-zero counts of the layer input, after applying
     * `prune` (may be null) to the cached unpruned tensor. This is
     * the only artifact the timing models consume.
     */
    std::shared_ptr<const CountMap>
    countMap(const nn::Network &net, int convNodeId,
             std::uint64_t imageSeed, const TraceProvider *traces,
             const nn::PruneConfig *prune, int brickSize);

    /**
     * Compute every (conv node x image) input tensor of `net` that is
     * not cached yet, over sim::parallelFor, largest input volume
     * first so the longest syntheses start at once and the small
     * layers pack around them. Counts no hit or miss; a second call
     * with the same arguments is a no-op.
     */
    void warm(const nn::Network &net,
              const std::vector<std::uint64_t> &imageSeeds,
              const TraceProvider *traces);

    Stats stats() const;

  private:
    /** One cached artifact: its own mutex serializes the
     *  compute-once protocol per key. */
    template <typename T> struct Slot
    {
        core::Mutex m;
        std::shared_ptr<const T> value CNV_GUARDED_BY(m);
    };
    struct TensorSlot : Slot<tensor::NeuronTensor>
    {
        /** Set by the first lookup that counted this key (a miss);
         *  warm() fills `value` without setting it. */
        bool counted CNV_GUARDED_BY(m) = false;
    };

    /** The (possibly empty) slot of a tensor key, created on demand. */
    std::shared_ptr<TensorSlot> tensorSlot(const nn::Network &net,
                                           int convNodeId,
                                           std::uint64_t imageSeed);

    /** Load or synthesize a tensor into its empty slot. */
    static void fill(TensorSlot &slot, const nn::Network &net,
                     int convNodeId, std::uint64_t imageSeed,
                     const TraceProvider *traces) CNV_REQUIRES(slot.m);

    /** Guards the two key -> slot maps (not slot contents). */
    core::Mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<TensorSlot>>
        tensors_ CNV_GUARDED_BY(mutex_);
    std::unordered_map<std::string, std::shared_ptr<Slot<CountMap>>>
        counts_ CNV_GUARDED_BY(mutex_);

    std::atomic<std::uint64_t> tensorHits_{0};
    std::atomic<std::uint64_t> tensorMisses_{0};
    std::atomic<std::uint64_t> countHits_{0};
    std::atomic<std::uint64_t> countMisses_{0};
};

} // namespace cnv::timing

#endif // CNV_TIMING_TRACE_CACHE_H
