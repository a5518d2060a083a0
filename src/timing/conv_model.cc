#include "timing/conv_model.h"

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "core/assignment.h"
#include "sim/logging.h"

namespace cnv::timing {

using dadiannao::LayerResult;
using dadiannao::NodeConfig;
using dadiannao::StallReason;
using tensor::Shape3;

namespace {

/**
 * wx[x] = number of (window, filter-cell) pairs along one dimension
 * that read input coordinate x — i.e., how many windows cover x with
 * a valid (non-padding) cell.
 */
std::vector<std::uint32_t>
coverage1d(int inDim, int outDim, int f, int stride, int pad)
{
    std::vector<std::uint32_t> w(static_cast<std::size_t>(inDim), 0);
    for (int o = 0; o < outDim; ++o) {
        for (int k = 0; k < f; ++k) {
            const int x = o * stride - pad + k;
            if (x >= 0 && x < inDim)
                ++w[x];
        }
    }
    return w;
}

} // namespace

LayerResult
convBaseline(const NodeConfig &cfg, const nn::ConvParams &p,
             const Shape3 &inShape, const CountMap &counts, bool isConv1,
             mem::BankedMemory *mem)
{
    const Shape3 outShape = p.outputShape(inShape);
    const int lanes = cfg.lanes;
    const int depthPerGroup = inShape.z / p.groups;
    const int filtersPerGroup = p.filters / p.groups;
    const int parallel = cfg.parallelFilters();

    LayerResult r;
    r.name = "conv";

    const auto wx = coverage1d(inShape.x, outShape.x, p.fx, p.stride, p.pad);
    const auto wy = coverage1d(inShape.y, outShape.y, p.fy, p.stride, p.pad);

    // Valid cells per window, summed over all windows (separable).
    std::uint64_t ax = 0, ay = 0;
    for (auto v : wx)
        ax += v;
    for (auto v : wy)
        ay += v;
    const std::uint64_t validCells = ax * ay;
    const std::uint64_t units = cfg.units;

    // Shallow inputs pack fetch blocks across window rows (see
    // ref/dadiannao_nfu.cc); blocks per window row depend only on ox.
    const bool packedRows = depthPerGroup < lanes && p.groups == 1;
    std::uint64_t packedRowBlocks = 0;
    if (packedRows) {
        for (int ox = 0; ox < outShape.x; ++ox) {
            const int x0 = ox * p.stride - p.pad;
            const int xs = std::max(x0, 0);
            const int xe = std::min(x0 + p.fx, inShape.x);
            if (xe <= xs)
                continue;
            const int s0 = xs * depthPerGroup;
            const int s1 = xe * depthPerGroup;
            packedRowBlocks += static_cast<std::uint64_t>(
                (s1 - 1) / lanes - s0 / lanes + 1);
        }
    }

    for (int g = 0; g < p.groups; ++g) {
        const int brickBase = (g * depthPerGroup) / cfg.brickSize;
        const int bricksPerCell =
            (depthPerGroup + cfg.brickSize - 1) / cfg.brickSize;
        if (p.groups > 1 && (g * depthPerGroup) % cfg.brickSize != 0)
            CNV_FATAL("group depth must be brick aligned");

        // Coverage-weighted non-zero neurons in this group's slice.
        std::uint64_t coveredNz = 0;
        for (int y = 0; y < inShape.y; ++y) {
            for (int x = 0; x < inShape.x; ++x) {
                std::uint64_t nz = 0;
                for (int b = 0; b < bricksPerCell; ++b)
                    nz += counts.at(x, y, brickBase + b);
                coveredNz += nz * wx[x] * wy[y];
            }
        }

        const std::uint64_t groupCycles = packedRows
            ? ay * packedRowBlocks
            : validCells * static_cast<std::uint64_t>(bricksPerCell);
        // Every lane slot of every cycle is an event; slots not
        // holding a covered non-zero neuron (depth tail padding or,
        // for packed rows, neighbouring-column data) count as zero.
        const std::uint64_t coveredSlots = groupCycles * lanes;
        const std::uint64_t coveredZero = coveredSlots - coveredNz;

        const int passes = (filtersPerGroup + parallel - 1) / parallel;
        for (int pass = 0; pass < passes; ++pass) {
            const int fCount =
                std::min(parallel, filtersPerGroup - pass * parallel);
            const int activeUnits =
                (fCount + cfg.filtersPerUnit - 1) / cfg.filtersPerUnit;
            const std::uint64_t passCycles = groupCycles;

            // One unit-wide NM row per cycle behind a single fetch
            // pointer: a strictly sequential stream that can never
            // conflict with itself, whatever the banking.
            if (mem)
                mem->fetchSequential(passCycles);
            r.cycles += passCycles;
            if (isConv1) {
                r.activity.conv1 += coveredSlots * units;
            } else {
                r.activity.zero += coveredZero * units;
                r.activity.nonZero += coveredNz * units;
            }
            r.energy.nmReads += passCycles;
            r.energy.nbinWrites += passCycles * lanes * units;
            r.energy.nbinReads += passCycles * lanes * units;
            r.energy.sbReads += passCycles * lanes * activeUnits;
            r.energy.multOps += passCycles * lanes * fCount;
            r.energy.addOps += passCycles * lanes * fCount;
        }
    }

    const std::uint64_t windows =
        static_cast<std::uint64_t>(outShape.x) * outShape.y;
    r.energy.nmWrites += windows * ((p.filters + lanes - 1) / lanes);
    // Lock-step broadcast keeps every lane occupied every cycle.
    r.micro.laneBusyCycles = r.cycles * static_cast<std::uint64_t>(lanes);
    return r;
}

namespace {

/** splitmix64 finalizer: uncorrelated 64-bit hash of its input. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** The weight schedule's hash of (conv layer, kernel position). */
std::uint64_t
weightCellHash(int convIndex, int ky, int kx)
{
    std::uint64_t h = mix64(static_cast<std::uint64_t>(convIndex) + 1);
    h = mix64(h ^ static_cast<std::uint64_t>(ky));
    return mix64(h ^ (static_cast<std::uint64_t>(kx) << 20));
}

/**
 * Whether the weight brick a filter group applies at one (kernel
 * position, depth brick, pass) is ineffectual, given the kernel
 * position's weightCellHash. A pure function of the static schedule
 * coordinates — the same answer on every call, every thread and
 * every job count — standing in for the offline weight-pruning
 * schedule Cnvlutin2 compiles per layer.
 */
bool
weightBrickIneffectual(std::uint64_t cellHash, int brick, int pass,
                       double sparsity)
{
    std::uint64_t h =
        mix64(cellHash ^ (static_cast<std::uint64_t>(brick) << 40));
    h = mix64(h ^ static_cast<std::uint64_t>(pass));
    // Top 53 bits as a uniform deviate in [0, 1).
    return static_cast<double>(h >> 11) * 0x1.0p-53 < sparsity;
}

/**
 * convCnv's body. The no-skip instantiation has no weight test in
 * its inner loop and builds each window group's lane profile once
 * for all filter passes; with weight skipping a brick's cost depends
 * on the pass, so the profile is rebuilt per pass.
 */
template <bool kSkipsWeights>
LayerResult
convEncoded(const NodeConfig &cfg, const nn::ConvParams &p,
            const Shape3 &inShape, const CountMap &counts,
            mem::BankedMemory *mem, int convIndex, double weightSparsity)
{
    const Shape3 outShape = p.outputShape(inShape);
    const int lanes = cfg.lanes;
    CNV_ASSERT(lanes == cfg.brickSize, "CNV needs one lane per brick slot");
    const int depthPerGroup = inShape.z / p.groups;
    const int filtersPerGroup = p.filters / p.groups;
    const int parallel = cfg.parallelFilters();
    const std::uint64_t units = cfg.units;
    const std::uint8_t emptyCost = cfg.emptyBrickCostsCycle ? 1 : 0;

    LayerResult r;
    r.name = kSkipsWeights ? "conv(cnv2)" : "conv(cnv)";

    for (int g = 0; g < p.groups; ++g) {
        if (p.groups > 1 && (g * depthPerGroup) % cfg.brickSize != 0)
            CNV_FATAL("group depth must be brick aligned");
        const int brickBase = (g * depthPerGroup) / cfg.brickSize;
        const int bricksPerCell =
            (depthPerGroup + cfg.brickSize - 1) / cfg.brickSize;

        // Per-column, per-brick lane costs and non-zero totals.
        const std::size_t cols =
            static_cast<std::size_t>(inShape.x) * inShape.y;
        std::vector<std::uint8_t> brickCost(
            cols * static_cast<std::size_t>(bricksPerCell), 0);
        std::vector<std::uint32_t> nzCol(cols, 0);
        for (int y = 0; y < inShape.y; ++y) {
            for (int x = 0; x < inShape.x; ++x) {
                const std::size_t c =
                    static_cast<std::size_t>(y) * inShape.x + x;
                std::uint8_t *bc = brickCost.data() + c * bricksPerCell;
                const std::uint8_t *col = counts.column(x, y) + brickBase;
                for (int b = 0; b < bricksPerCell; ++b) {
                    const std::uint8_t nz = col[b];
                    bc[b] = nz == 0 ? emptyCost : nz;
                    nzCol[c] += nz;
                }
            }
        }

        const int passes = (filtersPerGroup + parallel - 1) / parallel;

        std::array<std::uint64_t, 64> laneTime{};
        CNV_ASSERT(lanes <= 64, "lane count above model limit");

        // Brick addresses are linear over (cell, depth brick) so the
        // banked NM's modulo interleave sees the real access pattern.
        const std::uint64_t bricksTotal = static_cast<std::uint64_t>(
            (inShape.z + cfg.brickSize - 1) / cfg.brickSize);

        // Windows are processed in row-major groups of up to
        // windowsInFlight(); lanes synchronise at group boundaries.
        const int inFlight = cfg.windowsInFlight();

        // A window group fetches at most one brick per (window, kernel
        // cell, depth brick); the pass-0 walk stores them by index.
        std::vector<mem::Access> fetches(
            mem ? static_cast<std::size_t>(inFlight) * p.fx * p.fy *
                    static_cast<std::size_t>(bricksPerCell)
                : 0);
        std::size_t fetchCount = 0;
        const std::int64_t totalWindows =
            static_cast<std::int64_t>(outShape.x) * outShape.y;

        // One window group's lane profile for one filter pass: its
        // non-zero work, cells fetched, slowest lane and summed lane
        // busy cycles. The pass-0 walk also records the NM fetches,
        // which every pass repeats, skipped or not.
        struct LaneProfile
        {
            std::uint64_t nz = 0;
            std::uint64_t cells = 0;
            std::uint64_t groupCycles = 0;
            std::uint64_t laneSum = 0;
        };
        const auto walk = [&](std::int64_t w0, int batch, int pass) {
            LaneProfile prof;
            laneTime.fill(0);
            std::uint64_t skippedNz = 0;
            int windowSeq = 0;
            for (int w = 0; w < batch; ++w) {
                const int ox = static_cast<int>((w0 + w) % outShape.x);
                const int oy = static_cast<int>((w0 + w) / outShape.x);
                const int x0 = ox * p.stride - p.pad;
                const int y0 = oy * p.stride - p.pad;
                for (int ky = 0; ky < p.fy; ++ky) {
                    const int iy = y0 + ky;
                    if (iy < 0 || iy >= inShape.y)
                        continue;
                    for (int kx = 0; kx < p.fx; ++kx) {
                        const int ix = x0 + kx;
                        if (ix < 0 || ix >= inShape.x)
                            continue;
                        ++prof.cells;
                        const std::size_t c =
                            static_cast<std::size_t>(iy) * inShape.x + ix;
                        const std::uint8_t *bc =
                            brickCost.data() + c * bricksPerCell;
                        // Only the weight test reads raw counts.
                        const std::uint8_t *nzCell = kSkipsWeights
                            ? counts.column(ix, iy) + brickBase
                            : nullptr;
                        const std::uint64_t cellHash = kSkipsWeights
                            ? weightCellHash(convIndex, ky, kx)
                            : 0;
                        for (int b = 0; b < bricksPerCell; ++b) {
                            const int lane = core::laneOf(
                                cfg.laneAssignment, ix, iy, brickBase + b,
                                windowSeq++, lanes);
                            std::uint64_t cost = bc[b];
                            if constexpr (kSkipsWeights) {
                                // A non-empty brick whose weight brick
                                // the whole filter group prunes: one
                                // dispatcher slot to step past, no
                                // serialised multiply-cycles.
                                const std::uint8_t nz = nzCell[b];
                                if (nz != 0 &&
                                    weightBrickIneffectual(
                                        cellHash, brickBase + b, pass,
                                        weightSparsity)) {
                                    cost = emptyCost;
                                    skippedNz += nz;
                                }
                            }
                            laneTime[lane] += cost;
                            if (mem && pass == 0)
                                fetches[fetchCount++] = {
                                    lane,
                                    static_cast<std::uint64_t>(c) *
                                            bricksTotal +
                                        static_cast<std::uint64_t>(
                                            brickBase + b)};
                        }
                        prof.nz += nzCol[c];
                    }
                }
            }
            prof.nz -= skippedNz;
            for (int l = 0; l < lanes; ++l) {
                prof.groupCycles = std::max(prof.groupCycles, laneTime[l]);
                prof.laneSum += laneTime[l];
            }
            return prof;
        };

        for (std::int64_t w0 = 0; w0 < totalWindows; w0 += inFlight) {
            const int batch = static_cast<int>(
                std::min<std::int64_t>(inFlight, totalWindows - w0));

            fetchCount = 0;
            LaneProfile prof;
            for (int pass = 0; pass < passes; ++pass) {
                // Without weight skipping the profile is the same for
                // every pass; with it, each pass is a different
                // filter group with its own static weight schedule.
                if (kSkipsWeights || pass == 0)
                    prof = walk(w0, batch, pass);

                const int fCount = std::min(
                    parallel, filtersPerGroup - pass * parallel);
                const int activeUnits =
                    (fCount + cfg.filtersPerUnit - 1) /
                    cfg.filtersPerUnit;

                r.cycles += prof.groupCycles;
                r.activity.nonZero += prof.nz * units;
                r.activity.stall +=
                    (prof.groupCycles * lanes - prof.nz) * units;
                r.energy.nmReads +=
                    prof.cells * static_cast<std::uint64_t>(bricksPerCell);
                r.energy.nbinWrites += prof.nz * units;
                r.energy.nbinReads += prof.nz * units;
                r.energy.sbReads += prof.nz * activeUnits;
                r.energy.multOps += prof.nz * fCount;
                r.energy.addOps += prof.nz * fCount;
                // Mirror the cycle-level model's per-pass lane
                // accounting (laneTime includes empty-brick cycles).
                r.micro.laneBusyCycles += prof.laneSum;
                const std::uint64_t barrier =
                    prof.groupCycles * static_cast<std::uint64_t>(lanes) -
                    prof.laneSum;
                r.micro.laneIdleCycles += barrier;
                r.micro.stalls[StallReason::WindowBarrier] += barrier;

                if (mem) {
                    // Each pass re-fetches the group's bricks (the
                    // per-pass NM reads above); bank conflicts and
                    // exposed global-buffer fills stretch the group
                    // with every lane of every unit idle.
                    const mem::GroupCost gc = mem->fetchGroup(
                        std::span<const mem::Access>(fetches.data(),
                                                     fetchCount),
                        prof.groupCycles);
                    const std::uint64_t extra =
                        gc.conflictCycles + gc.gbFillCycles;
                    r.cycles += extra;
                    r.activity.stall += extra * lanes * units;
                    r.micro.laneIdleCycles += extra * lanes;
                    r.micro.stalls[StallReason::NmBankConflict] +=
                        gc.conflictCycles * lanes;
                    r.micro.stalls[StallReason::GbMiss] +=
                        gc.gbFillCycles * lanes;
                }
            }
        }
    }

    const std::uint64_t windows =
        static_cast<std::uint64_t>(outShape.x) * outShape.y;
    r.energy.nmWrites += windows * ((p.filters + lanes - 1) / lanes);
    r.energy.encoderOps += windows * static_cast<std::uint64_t>(p.filters);
    r.micro.encoderBusyCycles =
        windows * static_cast<std::uint64_t>(p.filters);
    r.micro.encoderBricks =
        windows * static_cast<std::uint64_t>(
                      (p.filters + cfg.brickSize - 1) / cfg.brickSize);
    return r;
}

} // namespace

LayerResult
convCnv(const NodeConfig &cfg, const nn::ConvParams &p,
        const Shape3 &inShape, const CountMap &counts,
        mem::BankedMemory *mem, int convIndex, double weightSparsity)
{
    CNV_ASSERT(weightSparsity >= 0.0 && weightSparsity <= 1.0,
               "weight sparsity {} outside [0, 1]", weightSparsity);
    return weightSparsity > 0.0
        ? convEncoded<true>(cfg, p, inShape, counts, mem, convIndex,
                            weightSparsity)
        : convEncoded<false>(cfg, p, inShape, counts, mem, convIndex,
                             weightSparsity);
}

} // namespace cnv::timing
