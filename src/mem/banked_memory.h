/**
 * @file
 * The banked memory hierarchy one `--mem banked` run simulates: the
 * global buffer (mem::GlobalBuffer) in front of the banked neuron
 * memory (mem::BankedNm), plus a fixed-bandwidth off-chip DRAM
 * channel. `timing::simulateNetwork` builds one per call, i.e. per
 * (architecture, image) task, and passes it to the conv models by
 * pointer; a null pointer is the ideal hierarchy. A model is never
 * shared across threads, so it takes no lock and its counters stay
 * deterministic at any --jobs count.
 */

#ifndef CNV_MEM_BANKED_MEMORY_H
#define CNV_MEM_BANKED_MEMORY_H

#include <cstdint>
#include <span>
#include <vector>

#include "mem/banked_nm.h"
#include "mem/global_buffer.h"
#include "mem/memory_model.h"

namespace cnv::mem {

/** GB in front of banked NM, plus the DRAM channel. */
class BankedMemory
{
  public:
    /** Requires banks, gbLines and dramBytesPerCycle > 0. */
    explicit BankedMemory(const Geometry &g);

    /**
     * Serve one window group's synchronised brick fetches. The
     * group's accesses are filtered through the global buffer, the
     * misses contend for NM banks, and the returned costs are the
     * cycles the group's runtime grows by. `computeCycles` is the
     * group's compute time, behind which GB miss fills can hide.
     */
    GroupCost fetchGroup(std::span<const Access> group,
                         std::uint64_t computeCycles);

    /**
     * Account `reads` NM fetches issued by a single unit-wide
     * pointer (the baseline's sequential walk: one bank per cycle
     * in order, never a conflict, never through the GB).
     */
    void
    fetchSequential(std::uint64_t reads)
    {
        nm_.addSequential(reads);
    }

    /**
     * Stream `bytes` over the off-chip channel; returns the channel
     * cycles occupied (the ceiling of bytes over the bandwidth).
     * Callers decide whether those cycles are exposed (activation
     * spills) or already overlapped elsewhere (synapse streams
     * timed by the overlap tracker).
     */
    std::uint64_t dramTransfer(std::uint64_t bytes);

    /**
     * Counters accumulated since the previous drain, and start a
     * new layer epoch (the global buffer is invalidated — one
     * layer's activations never hit on the previous layer's).
     */
    Counters drainLayer();

    /** Whole-run counter totals. */
    Counters totals() const;

  private:
    BankedNm nm_;
    GlobalBuffer gb_;
    const std::uint64_t dramBytesPerCycle_;
    std::uint64_t dramBytes_ = 0;
    std::uint64_t dramCycles_ = 0;
    /** Miss buffer reused across groups (grows to the largest). */
    std::vector<Access> misses_;
    /** Totals snapshot at the previous drainLayer(). */
    Counters drained_;
};

} // namespace cnv::mem

#endif // CNV_MEM_BANKED_MEMORY_H
