/**
 * @file
 * The memory-hierarchy vocabulary every timing model issues its
 * accesses in: which backend a run simulates (`mem::Kind`), the
 * geometry an architecture declares (`mem::Geometry`), one brick
 * fetch (`mem::Access`), the cycles a fetch group costs
 * (`mem::GroupCost`) and the counters a run accumulates
 * (`mem::Counters`). The one backend with state is
 * mem::BankedMemory (mem/banked_memory.h).
 *
 * The `ideal` backend (the registry default) is the legacy
 * single-cycle-NM assumption and has no object at all: the timing
 * models take a null mem::BankedMemory pointer and skip every
 * memory call, so reports are bit-identical to the pre-mem numbers.
 * The `banked` backend (`--mem banked`) models CNV's sixteen
 * independent per-slice fetch pointers vs DaDianNao's single
 * unit-wide pointer (paper Section 4's contention risk area): brick
 * fetches that miss the global buffer contend for NM banks, and
 * activation footprints past the NM capacity spill to DRAM.
 *
 * Accounting units: conflict and fill costs are *cycles* added to a
 * window group's runtime; the timing models convert them to idle
 * lane-cycles (every lane waits) and attribute them to the
 * `nm_bank_conflict` / `gb_miss` / `dram_wait` stall reasons, so
 * the stalls.total() == laneIdleCycles invariant keeps holding
 * (docs/observability.md, "Stall attribution").
 */

#ifndef CNV_MEM_MEMORY_MODEL_H
#define CNV_MEM_MEMORY_MODEL_H

#include <bit>
#include <cstdint>
#include <optional>
#include <string_view>

namespace cnv::mem {

/** Which memory backend a run simulates. */
enum class Kind {
    Ideal,  ///< legacy single-cycle NM; every access is free
    Banked, ///< banked NM + global buffer + DRAM channel
};

/** Stable CLI/manifest name of a backend ("ideal" / "banked"). */
const char *kindName(Kind k);

/** Parse a CLI spelling; std::nullopt on anything unknown. */
std::optional<Kind> parseKind(std::string_view name);

/**
 * Default global-buffer capacity in brick lines. One line holds one
 * ZFNAf brick; 4096 lines of 16-neuron bricks are 128 KiB of
 * values — a small shared staging buffer in front of the 4 MiB NM,
 * sized so intra-layer reuse (overlapping windows, repeated filter
 * passes) hits while whole layers do not fit.
 */
inline constexpr std::uint64_t kDefaultGbLines = 4096;

/**
 * Geometry of the simulated hierarchy, declared per architecture by
 * `arch::ArchModel::memGeometry()`. A zero `banks` count marks the
 * geometry as unset; consumers then derive it from the NodeConfig.
 */
struct Geometry
{
    /** NM bank count (0 = unset). */
    int banks = 0;
    /**
     * True when every lane advances its own slice fetch pointer
     * (CNV, Section 4); false for the baseline's single unit-wide
     * pointer, which walks banks in order and cannot conflict.
     */
    bool slicedFetch = false;
    /** NM capacity in bytes (activation working set per layer). */
    std::uint64_t nmBytes = 0;
    /** Global-buffer capacity in brick lines. */
    std::uint64_t gbLines = kDefaultGbLines;
    /** Off-chip channel bandwidth in bytes per cycle. */
    std::uint64_t dramBytesPerCycle = 0;
};

/** One brick fetch: the issuing lane and the NM brick address. */
struct Access
{
    int lane = 0;
    std::uint64_t address = 0;
};

/** Extra cycles one fetch group adds to its window group's runtime. */
struct GroupCost
{
    /** Cycles serialised on NM bank conflicts. */
    std::uint64_t conflictCycles = 0;
    /** GB miss-fill cycles not hidden behind the group's compute. */
    std::uint64_t gbFillCycles = 0;
};

/** Cumulative hierarchy counters (per layer or whole run). */
struct Counters
{
    /** Brick-granular NM reads actually issued (GB hits excluded). */
    std::uint64_t nmAccesses = 0;
    /** Extra cycles lost serialising same-bank fetches. */
    std::uint64_t nmConflictCycles = 0;
    /** Global-buffer hits / misses / capacity evictions. */
    std::uint64_t gbHits = 0;
    std::uint64_t gbMisses = 0;
    std::uint64_t gbEvictions = 0;
    /** Off-chip traffic and the channel cycles it occupied. */
    std::uint64_t dramBytes = 0;
    std::uint64_t dramCycles = 0;
};

/**
 * `address % n` for a fixed n > 0: the linear interleave that maps a
 * brick address to its NM bank or global-buffer slot. A power-of-two
 * n (every registry geometry) takes a mask fixed at construction
 * instead of a 64-bit division; any other n keeps the `%`.
 */
class Interleave
{
  public:
    explicit Interleave(std::uint64_t n)
        : n_(n), mask_(std::has_single_bit(n) ? n - 1 : 0),
          pow2_(std::has_single_bit(n))
    {
    }

    std::uint64_t
    operator()(std::uint64_t address) const
    {
        return pow2_ ? address & mask_ : address % n_;
    }

  private:
    std::uint64_t n_;
    std::uint64_t mask_;
    bool pow2_;
};

} // namespace cnv::mem

#endif // CNV_MEM_MEMORY_MODEL_H
