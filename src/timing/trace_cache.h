/**
 * @file
 * Shared, thread-safe cache of per-image conv-layer traces. The
 * timing models consume only per-brick non-zero count maps, keyed by
 * (network, node, image seed, prune thresholds, brick size); without
 * a cache a six-architecture registry sweep would derive the same
 * map six times per image.
 *
 * Count first: an unpruned count map of a synthetic trace is made by
 * nn::synthesizeConvInputCounts, which draws the zero pattern but no
 * activation value. The unpruned value tensor, keyed by (network,
 * node, image seed), is built only for the consumers that need
 * values: count maps with a positive prune threshold (synthesis with
 * pruning is synthesis-unpruned followed by the prune, so one tensor
 * serves every pruned variant), traces from a TraceProvider, and
 * explicit convInput() callers. When a key's tensor exists anyway,
 * its unpruned count maps are derived from it rather than
 * synthesized a second time.
 *
 * Thread safety: a global mutex guards only the key -> slot maps;
 * each slot carries its own mutex, so two threads asking for the
 * same missing key serialize on that slot (one computes, the other
 * waits and hits) while different keys proceed concurrently. A
 * thread holding a count slot may lock a tensor slot, never the
 * reverse.
 *
 * Counters: every slot remembers whether a counted lookup has seen
 * it, so the first counted lookup of a key is its miss whether or
 * not warm() filled it, and hit/miss totals are deterministic at any
 * job count. Tensor counters count value consumers only: convInput()
 * calls and the first lookup of each count map that needs values.
 * An unpruned synthetic sweep therefore reports no tensor lookups.
 *
 * warm() fills ahead of a sweep, fanned out over the pool, whatever
 * the sweep's lookups will read, so no run synthesizes.
 *
 * One cache assumes one TraceProvider (or none) for its lifetime;
 * callers pass the provider per lookup only so the cache does not
 * own it.
 *
 * Keys name a network by Network::name() alone, so one cache must
 * not see two networks of the same name that are built or calibrated
 * differently (e.g. a zoo network recalibrated to another sparsity):
 * the second would be served the first one's traces. Give each such
 * variant its own cache.
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
     * otherwise (nn::synthesizeConvInput).
     */
    std::shared_ptr<const tensor::NeuronTensor>
    convInput(const nn::Network &net, int convNodeId,
              std::uint64_t imageSeed, const TraceProvider *traces);

    /**
     * Per-brick non-zero counts of the layer input after applying
     * `prune` (may be null): the only artifact the timing models
     * consume. Count-first unless the lookup needs values (a
     * positive threshold or a provider).
     */
    std::shared_ptr<const CountMap>
    countMap(const nn::Network &net, int convNodeId,
             std::uint64_t imageSeed, const TraceProvider *traces,
             const nn::PruneConfig *prune, int brickSize);

    /**
     * Fill, for every (conv node x image) of `net`, the count maps of
     * `lookups` that are not cached yet, plus the value tensor when
     * one of them needs values. One (node, image) is synthesized
     * once: with the tensor when values are needed or the lookups
     * span more than one brick size, count-only otherwise. Runs over
     * sim::parallelFor, largest input volume first so the longest
     * syntheses start at once and the small layers pack around them.
     * Counts no hit or miss; a second call with the same arguments
     * is a no-op.
     */
    void warm(const nn::Network &net,
              const std::vector<std::uint64_t> &imageSeeds,
              const TraceProvider *traces,
              const std::vector<CountLookup> &lookups);

    Stats stats() const;

  private:
    /** One cached artifact: its own mutex serializes the
     *  compute-once protocol per key. */
    template <typename T> struct Slot
    {
        core::Mutex m;
        std::shared_ptr<const T> value CNV_GUARDED_BY(m);
        /** Set by the first lookup that counted this key (a miss);
         *  warm() fills `value` without setting it. */
        bool counted CNV_GUARDED_BY(m) = false;
    };
    using TensorSlot = Slot<tensor::NeuronTensor>;
    using CountSlot = Slot<CountMap>;

    /** The (possibly empty) slot of a tensor key, created on demand. */
    std::shared_ptr<TensorSlot> tensorSlot(const nn::Network &net,
                                           int convNodeId,
                                           std::uint64_t imageSeed);

    /** The (possibly empty) slot of a count-map key, created on demand. */
    std::shared_ptr<CountSlot> countSlot(const nn::Network &net,
                                         int convNodeId,
                                         std::uint64_t imageSeed,
                                         const nn::PruneConfig *prune,
                                         int brickSize);

    /** The key's tensor if one is cached or being filled, without
     *  counting or creating anything. */
    std::shared_ptr<const tensor::NeuronTensor>
    existingTensor(const nn::Network &net, int convNodeId,
                   std::uint64_t imageSeed);

    /** The key's tensor, filled if empty, without counting. */
    std::shared_ptr<const tensor::NeuronTensor>
    filledTensor(const nn::Network &net, int convNodeId,
                 std::uint64_t imageSeed, const TraceProvider *traces);

    /** Load or synthesize a tensor into its empty slot. */
    static void fill(TensorSlot &slot, const nn::Network &net,
                     int convNodeId, std::uint64_t imageSeed,
                     const TraceProvider *traces) CNV_REQUIRES(slot.m);

    /**
     * Counts of one lookup: from `tensor` when given (pruned
     * through the producers' thresholds), by count-only synthesis
     * otherwise.
     */
    static std::shared_ptr<const CountMap>
    computeCounts(const tensor::NeuronTensor *tensor,
                  const nn::Network &net, int convNodeId,
                  std::uint64_t imageSeed, const nn::PruneConfig *prune,
                  int brickSize);

    /** Guards the two key -> slot maps (not slot contents). */
    core::Mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<TensorSlot>>
        tensors_ CNV_GUARDED_BY(mutex_);
    std::unordered_map<std::string, std::shared_ptr<CountSlot>>
        counts_ CNV_GUARDED_BY(mutex_);

    std::atomic<std::uint64_t> tensorHits_{0};
    std::atomic<std::uint64_t> tensorMisses_{0};
    std::atomic<std::uint64_t> countHits_{0};
    std::atomic<std::uint64_t> countMisses_{0};
};

} // namespace cnv::timing

#endif // CNV_TIMING_TRACE_CACHE_H
