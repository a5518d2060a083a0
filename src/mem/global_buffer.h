/**
 * @file
 * Shared global buffer: a small direct-mapped staging cache of
 * brick lines in front of the banked NM. Window groups overlap and
 * filter passes re-read the same activation bricks; lines that hit
 * here never reach the NM banks (and so never conflict), while
 * misses are filled one line per cycle. Deterministic by
 * construction — a pure function of the access sequence — so
 * reports stay byte-identical at any --jobs count.
 */

#ifndef CNV_MEM_GLOBAL_BUFFER_H
#define CNV_MEM_GLOBAL_BUFFER_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mem/memory_model.h"

namespace cnv::mem {

/** Direct-mapped brick-line buffer with hit/miss/evict counters. */
class GlobalBuffer
{
  public:
    /** @param lines Capacity in brick lines (> 0); address A maps to
     *        slot A % lines. */
    explicit GlobalBuffer(std::uint64_t lines);

    /**
     * Look up one group's fetches; hits are absorbed, misses are
     * installed (evicting any resident line mapped to the same
     * slot) and written in order to the front of `misses` for the
     * NM to serve. `misses` must hold at least fetches.size()
     * entries. Returns the number of misses written.
     */
    std::size_t filterGroup(std::span<const Access> fetches,
                            std::span<Access> misses);

    /** Drop every resident line (layer epoch boundary). */
    void invalidate();

    std::uint64_t
    hits() const
    {
        return hits_;
    }

    std::uint64_t
    misses() const
    {
        return misses_;
    }

    std::uint64_t
    evictions() const
    {
        return evictions_;
    }

  private:
    const Interleave slotOf_;
    /** Resident address per slot; kEmpty when the slot is free. */
    std::vector<std::uint64_t> tag_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace cnv::mem

#endif // CNV_MEM_GLOBAL_BUFFER_H
