#include "mem/global_buffer.h"

#include <limits>

#include "sim/logging.h"

namespace cnv::mem {

namespace {

/** Sentinel tag for an unoccupied slot. */
constexpr std::uint64_t kEmpty = std::numeric_limits<std::uint64_t>::max();

} // namespace

GlobalBuffer::GlobalBuffer(std::uint64_t lines) : slotOf_(lines)
{
    CNV_ASSERT(lines > 0, "global buffer needs at least one line");
    tag_.assign(static_cast<std::size_t>(lines), kEmpty);
}

std::size_t
GlobalBuffer::filterGroup(std::span<const Access> fetches,
                          std::span<Access> misses)
{
    CNV_ASSERT(misses.size() >= fetches.size(),
               "miss buffer of {} entries for a group of {}",
               misses.size(), fetches.size());
    // Branch-free: every fetch is written to the next miss slot and
    // installed, but only a miss advances the slot (a hit rewrites
    // its own tag).
    std::size_t missed = 0;
    std::uint64_t evicted = 0;
    for (const Access &f : fetches) {
        std::uint64_t &tag =
            tag_[static_cast<std::size_t>(slotOf_(f.address))];
        const bool miss = tag != f.address;
        evicted += static_cast<std::uint64_t>(miss & (tag != kEmpty));
        tag = f.address;
        misses[missed] = f;
        missed += static_cast<std::size_t>(miss);
    }
    hits_ += fetches.size() - missed;
    misses_ += missed;
    evictions_ += evicted;
    return missed;
}

void
GlobalBuffer::invalidate()
{
    tag_.assign(tag_.size(), kEmpty);
}

} // namespace cnv::mem
