/**
 * @file
 * Area and energy models (Sections V-C and V-D).
 *
 * The paper measured area and power from synthesized Verilog (TSMC
 * 65nm, Synopsys DC), Artisan register-file compilers, and the
 * Destiny eDRAM model. This library substitutes a component-level
 * model: per-component areas and per-event/static energies are
 * constants calibrated once against the paper's published
 * breakdowns (Figures 11 and 12), with all *activity* — SB reads
 * suppressed during stalls, NM accesses, multiplications, encoder
 * work — coming from the simulators' event counters. Relative
 * results (the paper's claims) therefore emerge from simulation;
 * only the absolute scale is calibrated. See DESIGN.md.
 */

#ifndef CNV_POWER_MODEL_H
#define CNV_POWER_MODEL_H

#include "dadiannao/config.h"
#include "dadiannao/metrics.h"

namespace cnv::power {

/**
 * One architecture's area and energy overheads over the baseline
 * node: the only power-model input that differs between
 * architectures. All factors are 1.0 for DaDianNao; each
 * arch::ArchRegistry row carries its own block.
 */
struct Overheads
{
    double nmArea = 1.0;    ///< NM area (and NM static power)
    double sramArea = 1.0;  ///< NBin/NBout area (+ offset buffers)
    double logicArea = 1.0; ///< datapath, dispatcher, encoders
    double nmAccess = 1.0;  ///< energy per NM access
    double nbinAccess = 1.0; ///< energy per NBin/NBout entry access
    /** Extra NM leakage from banking (peripheral duplication). */
    double nmBankingStatic = 1.0;
};

/** CNV's overheads (Section V-C areas; Figure 12 fits). */
inline constexpr Overheads kCnvOverheads{
    .nmArea = 1.34,    // +25% offsets, 16 banks
    .sramArea = 1.158, // offset buffer space
    .logicArea = 1.01, // dispatcher + encoders
    .nmAccess = 1.35,  // wider (offsets) + banked access
    .nbinAccess = 1.25, // entry carries a 4-bit offset
    .nmBankingStatic = 1.05,
};

/**
 * Cnvlutin2's overheads: offset-only ZFNAf and weight-skip
 * sequencing on CNV's datapath (see docs/architectures.md).
 */
inline constexpr Overheads kCnv2Overheads{
    // NM provisioned for offset-only ZFNAf: per-slot 4-bit offsets
    // with values packed, so less padding capacity than CNV's
    // (value, offset) slots; banking retained.
    .nmArea = 1.28,
    .sramArea = 1.158, // same offset buffers as CNV
    // The dispatcher also walks the static weight-skip schedule
    // (per-filter-group brick masks).
    .logicArea = 1.02,
    .nmAccess = 1.30, // narrower rows than CNV, still banked
    .nbinAccess = 1.25,
    .nmBankingStatic = 1.05,
};

/** Component areas in mm^2 (65nm node). */
struct AreaBreakdown
{
    double sb = 0.0;     ///< 32MB filter storage (eDRAM)
    double nm = 0.0;     ///< central Neuron Memory (eDRAM)
    double logic = 0.0;  ///< datapath, control, dispatcher, encoder
    double sram = 0.0;   ///< NBin/NBout (+ offset buffers in CNV)

    double total() const { return sb + nm + logic + sram; }
};

/** Per-component power in watts, split static/dynamic. */
struct PowerBreakdown
{
    double sbStatic = 0.0, sbDynamic = 0.0;
    double nmStatic = 0.0, nmDynamic = 0.0;
    double logicStatic = 0.0, logicDynamic = 0.0;
    double sramStatic = 0.0, sramDynamic = 0.0;

    double
    staticTotal() const
    {
        return sbStatic + nmStatic + logicStatic + sramStatic;
    }

    double
    dynamicTotal() const
    {
        return sbDynamic + nmDynamic + logicDynamic + sramDynamic;
    }

    double total() const { return staticTotal() + dynamicTotal(); }
};

/** Energy/delay metrics for one run. */
struct RunMetrics
{
    double seconds = 0.0;
    double joules = 0.0;
    double watts = 0.0;
    /**
     * The paper computes "EDP" as average-power x delay (= energy)
     * and "ED^2P" as average-power x delay^2 (= energy x delay); we
     * follow the same arithmetic so ratios are comparable
     * (Figure 13; see EXPERIMENTS.md).
     */
    double edp = 0.0;
    double ed2p = 0.0;
};

/**
 * Calibrated baseline-node parameters (defaults reproduce the
 * paper); architectures scale them through their Overheads.
 */
struct PowerParams
{
    // --- Areas (mm^2), baseline node ---
    double sbArea = 44.0;
    double nmArea = 6.0;
    double logicArea = 12.0;
    double sramArea = 5.6;

    // --- Dynamic energies (picojoules per event) ---
    double sbReadPj = 48.0;       ///< 16-synapse (256-bit) eDRAM read
    double nmAccessPj = 60.0;     ///< 16-neuron NM read or write
    double nbinAccessPj = 1.1;    ///< NBin/NBout entry access
    double multPj = 0.5;          ///< 16-bit multiply
    double addPj = 0.25;          ///< adder-tree add
    double encoderPj = 0.35;     ///< encoder neuron examination
    double offchipPjPerByte = 20.0; ///< reported, not in chip power

    // --- Static power (watts), baseline node ---
    double sbStaticW = 1.00;
    double nmStaticW = 2.40;
    double logicStaticW = 0.25;
    double sramStaticW = 0.30;

    double clockGhz = 1.0;
};

/** Component area breakdown for an architecture (Figure 11). */
AreaBreakdown areaOf(const Overheads &o, const PowerParams &p = {});

/**
 * Average power over a run (Figure 12).
 *
 * @param o The architecture's overheads.
 * @param counters Event totals from the simulator.
 * @param cycles Run length in cycles.
 */
PowerBreakdown powerOf(const Overheads &o,
                       const dadiannao::EnergyCounters &counters,
                       std::uint64_t cycles, const PowerParams &p = {});

/** Delay, energy, EDP, ED^2P for a run (Figure 13). */
RunMetrics metricsOf(const Overheads &o,
                     const dadiannao::EnergyCounters &counters,
                     std::uint64_t cycles, const PowerParams &p = {});

} // namespace cnv::power

#endif // CNV_POWER_MODEL_H
