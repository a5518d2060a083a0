/**
 * @file
 * Network-level trace emission: folds the per-layer results of a
 * whole-network run (any architecture) into a Chrome trace-event
 * stream and a per-layer stall CSV.
 *
 * The timing models measure each layer as aggregate counters rather
 * than live spans, so this adapter reconstructs the run's timeline
 * post-hoc from NetworkResult: one process per architecture, a
 * "layers" track of per-layer spans, one track per stall reason
 * carrying the reason's idle lane-cycles, and an encoder track.
 *
 * The `cnvsim trace` subcommand and bench --trace-out options are
 * thin wrappers around these calls; docs/observability.md documents
 * the emitted schema field by field.
 */

#ifndef CNV_DRIVER_TRACE_PIPELINE_H
#define CNV_DRIVER_TRACE_PIPELINE_H

#include <cstdint>
#include <ostream>
#include <string>

#include "dadiannao/metrics.h"
#include "sim/trace_event.h"

namespace cnv::driver {

/**
 * Stable per-layer stat key, shared by the stats tree, the stall
 * CSV and the trace events: "L<index>_<name>" with '.' replaced by
 * '_' so the key never collides with stat-path separators.
 */
std::string layerStatKey(int index, const std::string &name);

/**
 * Append one architecture's run to @p sink as process @p pid named
 * @p processName:
 *
 *  - tid 0 "layers": one span per layer over [startCycle, +cycles),
 *    cat "layer", with busy/idle lane-cycle args;
 *  - tids 1..7, one per dadiannao::StallReason: a span per layer with
 *    idle lane-cycles of that reason, cat "stall", named after the
 *    reason, args {layer: layerStatKey, laneCycles: amount};
 *  - tid 8 "encoder": an "encode" span (cat "encoder") per layer
 *    that used the encoder, clamped to the layer's cycles (the real
 *    overlap-capable busy count rides in the busyCycles arg);
 *  - tid 9 "dram" (`--mem banked` runs only): a "dram-burst" span
 *    (cat "dram") per layer that moved off-chip bytes, clamped to
 *    the layer's cycles, args {bytes, busyCycles};
 *  - a "laneUtilisation" counter sampled at each layer boundary.
 *
 * Layer and stall spans are emitted before the counter samples so a
 * capped sink drops the cosmetic events first.
 */
void appendNetworkTrace(sim::TraceSink &sink,
                        const dadiannao::NetworkResult &result,
                        std::uint32_t pid,
                        const std::string &processName);

/**
 * Write one run's stall attribution as sparse CSV rows
 * `layer,reason,idleLaneCycles` (RFC 4180 quoting), one row per
 * non-zero (layer, reason) cell in layer order, layers keyed by
 * layerStatKey. The rows sum to the run's
 * totalMicro().laneIdleCycles as long as every model attributed its
 * idle cycles (enforced by tests/analysis/test_trace_pipeline.cc).
 *
 * @param scope When non-empty, prepended to every row as a leading
 *        `scope` column (the architecture id, so several runs merge
 *        into one file).
 * @param header Emit the header row.
 */
void writeStallCsv(std::ostream &os, const dadiannao::NetworkResult &result,
                   const std::string &scope = "", bool header = true);

} // namespace cnv::driver

#endif // CNV_DRIVER_TRACE_PIPELINE_H
