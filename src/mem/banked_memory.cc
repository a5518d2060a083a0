#include "mem/banked_memory.h"

#include "sim/logging.h"

namespace cnv::mem {

BankedMemory::BankedMemory(const Geometry &g)
    : nm_(g.banks, g.slicedFetch), gb_(g.gbLines),
      dramBytesPerCycle_(g.dramBytesPerCycle)
{
    CNV_ASSERT(g.banks > 0, "banked memory model needs a bank count");
    CNV_ASSERT(g.dramBytesPerCycle > 0,
               "banked memory model needs a DRAM bandwidth");
    CNV_ASSERT(g.gbLines > 0,
               "banked memory model needs a global-buffer capacity");
}

GroupCost
BankedMemory::fetchGroup(std::span<const Access> group,
                         std::uint64_t computeCycles)
{
    GroupCost cost;
    if (misses_.size() < group.size())
        misses_.resize(group.size());
    const std::size_t missed = gb_.filterGroup(group, misses_);
    cost.conflictCycles =
        nm_.serveGroup(std::span<const Access>(misses_).first(missed));
    // The GB fill port installs one line per cycle; fills hide
    // behind the group's compute and only the excess is exposed.
    if (missed > computeCycles)
        cost.gbFillCycles = missed - computeCycles;
    return cost;
}

std::uint64_t
BankedMemory::dramTransfer(std::uint64_t bytes)
{
    const std::uint64_t busy =
        (bytes + dramBytesPerCycle_ - 1) / dramBytesPerCycle_;
    dramBytes_ += bytes;
    dramCycles_ += busy;
    return busy;
}

Counters
BankedMemory::drainLayer()
{
    const Counters now = totals();
    Counters delta = now;
    delta.nmAccesses -= drained_.nmAccesses;
    delta.nmConflictCycles -= drained_.nmConflictCycles;
    delta.gbHits -= drained_.gbHits;
    delta.gbMisses -= drained_.gbMisses;
    delta.gbEvictions -= drained_.gbEvictions;
    delta.dramBytes -= drained_.dramBytes;
    delta.dramCycles -= drained_.dramCycles;
    drained_ = now;
    gb_.invalidate();
    return delta;
}

Counters
BankedMemory::totals() const
{
    Counters c;
    c.nmAccesses = nm_.accesses();
    c.nmConflictCycles = nm_.conflictCycles();
    c.gbHits = gb_.hits();
    c.gbMisses = gb_.misses();
    c.gbEvictions = gb_.evictions();
    c.dramBytes = dramBytes_;
    c.dramCycles = dramCycles_;
    return c;
}

} // namespace cnv::mem
