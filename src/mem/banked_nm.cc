#include "mem/banked_nm.h"

#include <algorithm>

#include "sim/logging.h"

namespace cnv::mem {

BankedNm::BankedNm(int banks, bool slicedFetch)
    : banks_(static_cast<std::uint64_t>(banks)),
      bankOf_(static_cast<std::uint64_t>(banks)), slicedFetch_(slicedFetch)
{
    CNV_ASSERT(banks > 0, "banked NM needs at least one bank, got {}",
               banks);
}

std::uint64_t
BankedNm::serveGroup(std::span<const Access> fetches)
{
    accesses_ += fetches.size();
    // The baseline's single unit-wide pointer is one stream: one
    // bank access per cycle, trivially conflict-free.
    if (!slicedFetch_)
        return 0;

    // A fetch's round is its index in its lane's stream, so the
    // longest stream sets the round count; then count the heads
    // every bank serves in every round.
    for (const Access &f : fetches) {
        CNV_ASSERT(f.lane >= 0 && f.lane < kMaxLanes,
                   "fetch lane {} out of range", f.lane);
        ++laneFetches_[static_cast<std::size_t>(f.lane)];
    }
    const std::size_t rounds =
        *std::max_element(laneFetches_.begin(), laneFetches_.end());
    laneFetches_.fill(0);
    if (roundBank_.size() < rounds * banks_)
        roundBank_.resize(rounds * banks_, 0);
    for (const Access &f : fetches) {
        const std::size_t round =
            laneFetches_[static_cast<std::size_t>(f.lane)]++;
        ++roundBank_[round * banks_ + bankOf_(f.address)];
    }

    // A bank with n heads serialises them over n cycles, so a round
    // takes its busiest bank's count and the excess past one cycle
    // is the conflict cost. Every round up to the longest stream's
    // length has at least one head. Rows are cleared as they are read.
    std::uint64_t conflict = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
        std::uint32_t *row = roundBank_.data() + r * banks_;
        std::uint32_t busiest = 0;
        for (std::uint64_t b = 0; b < banks_; ++b) {
            busiest = std::max(busiest, row[b]);
            row[b] = 0;
        }
        conflict += busiest - 1;
    }
    laneFetches_.fill(0);
    conflictCycles_ += conflict;
    return conflict;
}

} // namespace cnv::mem
