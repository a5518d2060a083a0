/**
 * @file
 * Banked neuron memory with per-bank fetch-pointer conflict
 * accounting. CNV gives every neuron lane its own slice fetch
 * pointer (sixteen independent streams, paper Section 4) where
 * DaDianNao advances one unit-wide pointer; independent pointers
 * can land on the same NM bank in the same cycle, and the bank
 * serialises them. serveGroup() returns one window group's
 * serialisation cost by counting, per round, how many stream heads
 * each bank serves; it allocates nothing once its scratch has grown
 * to the largest group seen. tests/mem/test_banked_nm.cc pins a
 * hand-worked 4-bank example and checks the count against a
 * round-by-round queue replay.
 */

#ifndef CNV_MEM_BANKED_NM_H
#define CNV_MEM_BANKED_NM_H

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "mem/memory_model.h"

namespace cnv::mem {

/** The banked NM array and its conflict/access counters. */
class BankedNm
{
  public:
    /** Lanes a fetch may name: [0, kMaxLanes), the conv models' limit. */
    static constexpr int kMaxLanes = 64;

    /**
     * @param banks Bank count (> 0); a brick at address A lives in
     *        bank A % banks (linear interleave).
     * @param slicedFetch Per-lane slice pointers (CNV) when true;
     *        one unit-wide pointer (baseline) when false.
     */
    BankedNm(int banks, bool slicedFetch);

    /**
     * Serve one synchronised group of brick fetches (the global-
     * buffer misses of a window group) and return the extra cycles
     * the group serialises on bank conflicts.
     *
     * With sliced fetch each lane's accesses form an in-order
     * stream; cycle by cycle every non-empty stream presents its
     * head fetch, a bank serving n heads takes n cycles, and the
     * round costs max-per-bank cycles instead of one — the excess
     * is the conflict cost. A fetch's round is therefore its index
     * in its lane's stream. A single unit-wide pointer (slicedFetch
     * false) issues one fetch per cycle and can never conflict.
     */
    std::uint64_t serveGroup(std::span<const Access> fetches);

    /** Account sequential unit-wide-pointer reads (no conflicts). */
    void
    addSequential(std::uint64_t reads)
    {
        accesses_ += reads;
    }

    /** Cumulative NM reads issued. */
    std::uint64_t
    accesses() const
    {
        return accesses_;
    }

    /** Cumulative cycles lost to bank conflicts. */
    std::uint64_t
    conflictCycles() const
    {
        return conflictCycles_;
    }

  private:
    const std::uint64_t banks_;
    const Interleave bankOf_;
    const bool slicedFetch_;

    std::uint64_t accesses_ = 0;
    std::uint64_t conflictCycles_ = 0;

    /** Fetches seen so far per lane in the current group. */
    std::array<std::uint32_t, kMaxLanes> laneFetches_{};
    /**
     * Heads per (round, bank), round-major; zero between calls.
     * Grows to the longest stream seen times the bank count.
     */
    std::vector<std::uint32_t> roundBank_;
};

} // namespace cnv::mem

#endif // CNV_MEM_BANKED_NM_H
