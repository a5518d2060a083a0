/**
 * @file
 * Result records shared by both accelerator models.
 *
 * Activity follows the paper's Figure 10 metric: one event per
 * (unit, neuron lane, cycle), each assigned to exactly one category,
 * so the event total units x lanes x cycles is directly proportional
 * to execution time.
 */

#ifndef CNV_DADIANNAO_METRICS_H
#define CNV_DADIANNAO_METRICS_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cnv::dadiannao {

/** Per-lane-cycle activity categories (Figure 10). */
struct Activity
{
    std::uint64_t other = 0;    ///< non-convolutional layers
    std::uint64_t conv1 = 0;    ///< first convolutional layer
    std::uint64_t zero = 0;     ///< processing a zero neuron
    std::uint64_t nonZero = 0;  ///< processing a non-zero neuron
    std::uint64_t stall = 0;    ///< idle waiting for window sync

    std::uint64_t
    total() const
    {
        return other + conv1 + zero + nonZero + stall;
    }

    Activity &
    operator+=(const Activity &o)
    {
        other += o.other;
        conv1 += o.conv1;
        zero += o.zero;
        nonZero += o.nonZero;
        stall += o.stall;
        return *this;
    }
};

/** Hardware event counters feeding the energy model. */
struct EnergyCounters
{
    /** 16-synapse SB sublane reads (suppressed when a subunit stalls). */
    std::uint64_t sbReads = 0;
    /** 16-neuron-wide NM reads (CNV reads carry offsets too). */
    std::uint64_t nmReads = 0;
    /** 16-neuron-wide NM writes (via NBout / encoder). */
    std::uint64_t nmWrites = 0;
    /** NBin entry reads (one neuron or one (neuron, offset) pair). */
    std::uint64_t nbinReads = 0;
    /** NBin entry writes. */
    std::uint64_t nbinWrites = 0;
    /** Multiplications actually performed. */
    std::uint64_t multOps = 0;
    /** Adder-tree reduction operations (per product). */
    std::uint64_t addOps = 0;
    /** Encoder neuron examinations (CNV only). */
    std::uint64_t encoderOps = 0;
    /** Bytes streamed from off-chip memory. */
    std::uint64_t offchipBytes = 0;

    EnergyCounters &
    operator+=(const EnergyCounters &o)
    {
        sbReads += o.sbReads;
        nmReads += o.nmReads;
        nmWrites += o.nmWrites;
        nbinReads += o.nbinReads;
        nbinWrites += o.nbinWrites;
        multOps += o.multOps;
        addOps += o.addOps;
        encoderOps += o.encoderOps;
        offchipBytes += o.offchipBytes;
        return *this;
    }
};

/**
 * Why a neuron lane sat idle for a span of cycles. The order is the
 * report order, the stall-CSV order and the trace's stall-track
 * order; every idle lane-cycle a model reports carries exactly one
 * reason.
 */
enum class StallReason : std::uint8_t {
    /** Lane had bricks left but its brick-buffer entry was empty
     *  (waiting on an NM fetch); on the baseline, the equivalent
     *  NBin-empty pipeline-fill wait. */
    BrickBufferEmpty = 0,
    /** Lane finished its window-group work early and waited at the
     *  per-window-group synchronisation barrier (Section IV-B5). */
    WindowBarrier,
    /** Whole node idle on the off-chip synapse stream (exposed
     *  synapse-load time not hidden by compute overlap). */
    SynapseWait,
    /** Lane's slice ran dry while other lanes were still draining
     *  theirs. No current model separates this from WindowBarrier,
     *  so it reports zero. */
    SliceDrained,
    /** Independent slice fetch pointers landed on the same NM bank
     *  and serialised (`--mem banked`, mem::BankedNm). */
    NmBankConflict,
    /** Global-buffer miss fills not hidden behind the window
     *  group's compute (`--mem banked`, mem::GlobalBuffer). */
    GbMiss,
    /** Whole node idle on an off-chip activation spill past the NM
     *  capacity (`--mem banked`, mem::BankedMemory). */
    DramWait,
};

/** Number of distinct stall reasons. */
inline constexpr std::size_t kStallReasonCount = 7;

/** One row of the stall vocabulary. */
struct StallReasonInfo
{
    StallReason reason;
    /** Stable snake_case name: stat key, CSV cell and trace span name. */
    const char *name;
    /** One-line description carried by the report counters. */
    const char *desc;
};

/** The stall vocabulary, indexed (and ordered) by StallReason. */
inline constexpr std::array<StallReasonInfo, kStallReasonCount>
    kStallReasons = {{
        {StallReason::BrickBufferEmpty, "brick_buffer_empty",
         "lane-cycles idle waiting on NM brick fetches"},
        {StallReason::WindowBarrier, "window_barrier",
         "lane-cycles idle at window-group sync barriers"},
        {StallReason::SynapseWait, "synapse_wait",
         "lane-cycles idle on the off-chip synapse stream"},
        {StallReason::SliceDrained, "slice_drained",
         "lane-cycles idle with the lane's slice drained"},
        {StallReason::NmBankConflict, "nm_bank_conflict",
         "lane-cycles idle serialising on NM bank conflicts"},
        {StallReason::GbMiss, "gb_miss",
         "lane-cycles idle on exposed global-buffer miss fills"},
        {StallReason::DramWait, "dram_wait",
         "lane-cycles idle on off-chip activation spills"},
    }};

static_assert(
    [] {
        for (std::size_t i = 0; i < kStallReasonCount; ++i) {
            if (static_cast<std::size_t>(kStallReasons[i].reason) != i)
                return false;
        }
        return true;
    }(),
    "kStallReasons rows must follow StallReason order");

/**
 * True for the reasons only the banked memory hierarchy produces.
 * Reports emit them only when NetworkResult::memModelled, so ideal
 * reports stay byte-identical to pre-mem builds.
 */
constexpr bool
isMemoryStall(StallReason r)
{
    return r >= StallReason::NmBankConflict;
}

/**
 * Reason-attributed idle lane-cycles, indexed by StallReason. Every
 * idle lane-cycle a model reports in MicroTrace::laneIdleCycles is
 * assigned to exactly one reason, so total() == laneIdleCycles
 * wherever both are filled (enforced by tests/analysis/
 * test_trace_pipeline.cc and at runtime by `cnvsim trace`).
 */
struct StallBreakdown
{
    std::array<std::uint64_t, kStallReasonCount> cycles{};

    std::uint64_t &
    operator[](StallReason r)
    {
        return cycles[static_cast<std::size_t>(r)];
    }

    std::uint64_t
    operator[](StallReason r) const
    {
        return cycles[static_cast<std::size_t>(r)];
    }

    /** Idle lane-cycles summed over every reason. */
    std::uint64_t
    total() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t c : cycles)
            sum += c;
        return sum;
    }

    StallBreakdown &
    operator+=(const StallBreakdown &o)
    {
        for (std::size_t i = 0; i < kStallReasonCount; ++i)
            cycles[i] += o.cycles[i];
        return *this;
    }
};

/**
 * Per-layer memory-hierarchy counters (filled only on `--mem
 * banked` runs; all zero — and omitted from every report — under
 * the ideal model). Mirrors mem::Counters so result records stay
 * plain data with no mem dependency.
 */
struct MemTrace
{
    /** Brick-granular NM reads issued (global-buffer hits excluded). */
    std::uint64_t nmAccesses = 0;
    /** Extra cycles serialised on NM bank conflicts. */
    std::uint64_t nmConflictCycles = 0;
    /** Global-buffer hits / misses / capacity evictions. */
    std::uint64_t gbHits = 0;
    std::uint64_t gbMisses = 0;
    std::uint64_t gbEvictions = 0;
    /** Off-chip traffic and the channel cycles it occupied. */
    std::uint64_t dramBytes = 0;
    std::uint64_t dramCycles = 0;

    MemTrace &
    operator+=(const MemTrace &o)
    {
        nmAccesses += o.nmAccesses;
        nmConflictCycles += o.nmConflictCycles;
        gbHits += o.gbHits;
        gbMisses += o.gbMisses;
        gbEvictions += o.gbEvictions;
        dramBytes += o.dramBytes;
        dramCycles += o.dramCycles;
        return *this;
    }
};

/**
 * Per-layer microarchitecture occupancy detail (observability).
 *
 * Lane counts are per unit (multiply by the unit count for node
 * totals) and partition each layer's cycles: busy + idle =
 * cycles x lanes wherever the producer models lanes. Encoder fields
 * are populated for CNV encoded layers.
 */
struct MicroTrace
{
    /** Lane-cycles spent draining (value, offset) pairs or blocks. */
    std::uint64_t laneBusyCycles = 0;
    /** Lane-cycles idle at window-group synchronisation points. */
    std::uint64_t laneIdleCycles = 0;
    /** The same idle lane-cycles, attributed to stall reasons. */
    StallBreakdown stalls;
    /** Cycles the encoder spent converting output bricks (serial). */
    std::uint64_t encoderBusyCycles = 0;
    /** ZFNAf output bricks produced by the encoder. */
    std::uint64_t encoderBricks = 0;

    /** Fraction of lane-cycles doing work (1.0 when lock-step). */
    double
    laneUtilisation() const
    {
        const std::uint64_t total = laneBusyCycles + laneIdleCycles;
        return total ? static_cast<double>(laneBusyCycles) /
                           static_cast<double>(total)
                     : 0.0;
    }

    MicroTrace &
    operator+=(const MicroTrace &o)
    {
        laneBusyCycles += o.laneBusyCycles;
        laneIdleCycles += o.laneIdleCycles;
        stalls += o.stalls;
        encoderBusyCycles += o.encoderBusyCycles;
        encoderBricks += o.encoderBricks;
        return *this;
    }
};

/** Timing/activity result for one layer on one architecture. */
struct LayerResult
{
    std::string name;
    std::uint64_t cycles = 0;
    /**
     * First cycle of the layer on the run's serialized timeline
     * (cumulative over the preceding layers; overlap with off-chip
     * loads is already folded into each layer's exposed cycles).
     * Stamped by NetworkResult::stampTimeline().
     */
    std::uint64_t startCycle = 0;
    Activity activity;
    EnergyCounters energy;
    MicroTrace micro;
    /** Memory-hierarchy counters (all zero unless `--mem banked`). */
    MemTrace mem;
};

/** Whole-network result. */
struct NetworkResult
{
    std::string network;
    std::string architecture;
    /**
     * True when the run simulated the memory hierarchy (`--mem
     * banked`): per-layer MemTrace fields are meaningful and the
     * reports emit the memory blocks. False keeps every report
     * byte-identical to a pre-mem build.
     */
    bool memModelled = false;
    std::vector<LayerResult> layers;

    std::uint64_t
    totalCycles() const
    {
        std::uint64_t total = 0;
        for (const LayerResult &l : layers)
            total += l.cycles;
        return total;
    }

    Activity
    totalActivity() const
    {
        Activity a;
        for (const LayerResult &l : layers)
            a += l.activity;
        return a;
    }

    EnergyCounters
    totalEnergy() const
    {
        EnergyCounters e;
        for (const LayerResult &l : layers)
            e += l.energy;
        return e;
    }

    MicroTrace
    totalMicro() const
    {
        MicroTrace m;
        for (const LayerResult &l : layers)
            m += l.micro;
        return m;
    }

    MemTrace
    totalMem() const
    {
        MemTrace m;
        for (const LayerResult &l : layers)
            m += l.mem;
        return m;
    }

    /**
     * Assign each layer's startCycle as the cumulative sum of the
     * preceding layers' cycles (the serialized run timeline). Called
     * by the network-level model builders once all layers exist.
     */
    void
    stampTimeline()
    {
        std::uint64_t now = 0;
        for (LayerResult &l : layers) {
            l.startCycle = now;
            now += l.cycles;
        }
    }
};

} // namespace cnv::dadiannao

#endif // CNV_DADIANNAO_METRICS_H
