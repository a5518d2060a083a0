#include "ref/cnv_unit.h"

#include <algorithm>

#include "core/assignment.h"
#include "sim/logging.h"

namespace cnv::ref {

using core::laneOf;
using dadiannao::Activity;
using dadiannao::EnergyCounters;
using dadiannao::NodeConfig;
using dadiannao::StallReason;
using tensor::Accum;
using tensor::FilterBank;
using tensor::Fixed16;
using tensor::NeuronTensor;
using tensor::Shape3;

CnvConvResult
simulateConvCnv(const NodeConfig &cfg, const nn::ConvParams &p,
                const zfnaf::EncodedArray &in, const FilterBank &weights,
                const std::vector<Fixed16> &bias)
{
    CNV_ASSERT(cfg.brickSize == in.brickSize(),
               "node brick size {} != encoded array brick size {}",
               cfg.brickSize, in.brickSize());
    CNV_ASSERT(cfg.lanes == cfg.brickSize,
               "CNV requires one neuron lane per brick slot");

    const Shape3 inShape = in.shape();
    const Shape3 outShape = p.outputShape(inShape);
    const int lanes = cfg.lanes;
    const int depthPerGroup = inShape.z / p.groups;
    const int filtersPerGroup = p.filters / p.groups;
    const int parallel = cfg.parallelFilters();
    const int inFlight = cfg.windowsInFlight();

    if (p.groups > 1 && depthPerGroup % cfg.brickSize != 0) {
        CNV_FATAL("group depth {} must be brick aligned ({})", depthPerGroup,
                  cfg.brickSize);
    }

    CnvConvResult result;
    result.timing.name = "conv(cnv)";
    result.output = NeuronTensor(outShape);

    Activity &act = result.timing.activity;
    EnergyCounters &en = result.timing.energy;
    std::uint64_t cycles = 0;

    // NBout partial sums for the windows currently in flight.
    std::vector<std::vector<Accum>> acc(
        inFlight, std::vector<Accum>(static_cast<std::size_t>(p.filters)));
    std::vector<std::uint64_t> laneTime(lanes);

    // Windows are taken in row-major order in groups of up to
    // `inFlight` (their partial sums share NBout); lanes synchronise
    // only at group boundaries (Section IV-B5).
    const std::int64_t totalWindows =
        static_cast<std::int64_t>(outShape.x) * outShape.y;

    for (std::int64_t w0 = 0; w0 < totalWindows; w0 += inFlight) {
        const int batch = static_cast<int>(
            std::min<std::int64_t>(inFlight, totalWindows - w0));
        for (int w = 0; w < batch; ++w)
            std::fill(acc[w].begin(), acc[w].end(), Accum{0});

        for (int g = 0; g < p.groups; ++g) {
            const int zBase = g * depthPerGroup;
            const int brickBase = zBase / cfg.brickSize;
            const int bricksPerCell =
                (depthPerGroup + cfg.brickSize - 1) / cfg.brickSize;
            const int fBase = g * filtersPerGroup;
            const int passes = (filtersPerGroup + parallel - 1) / parallel;

            for (int pass = 0; pass < passes; ++pass) {
                const int fStart = fBase + pass * parallel;
                const int fCount =
                    std::min(parallel, fBase + filtersPerGroup - fStart);
                const int activeUnits =
                    (fCount + cfg.filtersPerUnit - 1) / cfg.filtersPerUnit;

                std::fill(laneTime.begin(), laneTime.end(),
                          std::uint64_t{0});
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

                            for (int b = 0; b < bricksPerCell; ++b) {
                                const int gBrick = brickBase + b;
                                const int lane = laneOf(
                                    cfg.laneAssignment, ix, iy, gBrick,
                                    windowSeq++, lanes);
                                const auto entries =
                                    in.brick(ix, iy, gBrick);
                                en.nmReads += 1; // one brick fetch/bank

                                if (entries.empty()) {
                                    // All-zero brick: the NM bank can
                                    // supply at most one brick per
                                    // cycle; the lane idles for it.
                                    if (cfg.emptyBrickCostsCycle) {
                                        laneTime[lane] += 1;
                                        act.stall +=
                                            static_cast<std::uint64_t>(
                                                cfg.units);
                                    }
                                    continue;
                                }

                                laneTime[lane] += entries.size();
                                act.nonZero +=
                                    entries.size() *
                                    static_cast<std::uint64_t>(cfg.units);
                                en.nbinWrites +=
                                    entries.size() *
                                    static_cast<std::uint64_t>(cfg.units);
                                en.nbinReads +=
                                    entries.size() *
                                    static_cast<std::uint64_t>(cfg.units);
                                // Each non-zero neuron triggers one
                                // 16-synapse SB access per active
                                // unit and fCount multiplies.
                                en.sbReads += entries.size() *
                                              static_cast<std::uint64_t>(
                                                  activeUnits);
                                en.multOps +=
                                    entries.size() *
                                    static_cast<std::uint64_t>(fCount);
                                en.addOps +=
                                    entries.size() *
                                    static_cast<std::uint64_t>(fCount);

                                for (const zfnaf::EncodedNeuron &e :
                                     entries) {
                                    const int z = gBrick * cfg.brickSize +
                                                  e.offset - zBase;
                                    CNV_ASSERT(z >= 0 && z < depthPerGroup,
                                               "offset escapes group slice");
                                    for (int f = 0; f < fCount; ++f) {
                                        const Fixed16 s = weights.at(
                                            fStart + f, kx, ky, z);
                                        acc[w][fStart + f] +=
                                            mulRaw(e.value, s);
                                    }
                                }
                            }
                        }
                    }
                }

                // Lanes wait for the slowest before the next window
                // group / filter pass.
                const std::uint64_t groupCycles =
                    *std::max_element(laneTime.begin(), laneTime.end());
                cycles += groupCycles;
                std::uint64_t laneSum = 0;
                for (int lane = 0; lane < lanes; ++lane) {
                    laneSum += laneTime[lane];
                    act.stall += (groupCycles - laneTime[lane]) *
                                 static_cast<std::uint64_t>(cfg.units);
                }
                result.timing.micro.laneBusyCycles += laneSum;
                const std::uint64_t barrier =
                    groupCycles * static_cast<std::uint64_t>(lanes) -
                    laneSum;
                result.timing.micro.laneIdleCycles += barrier;
                result.timing.micro.stalls[StallReason::WindowBarrier] +=
                    barrier;
            }
        }

        // Drain NBout through the encoder to NM.
        for (int w = 0; w < batch; ++w) {
            const int ox = static_cast<int>((w0 + w) % outShape.x);
            const int oy = static_cast<int>((w0 + w) / outShape.x);
            for (int f = 0; f < p.filters; ++f) {
                Fixed16 v = Fixed16::productToFixed(acc[w][f]) + bias[f];
                if (p.relu)
                    v = v.relu();
                result.output.at(ox, oy, f) = v;
            }
            en.nmWrites += (p.filters + lanes - 1) / lanes;
            en.encoderOps += static_cast<std::uint64_t>(p.filters);
            // The per-unit encoder is serial: one output neuron
            // examined per cycle, packed into brick-sized NM writes.
            result.timing.micro.encoderBusyCycles +=
                static_cast<std::uint64_t>(p.filters);
            result.timing.micro.encoderBricks +=
                static_cast<std::uint64_t>(
                    (p.filters + cfg.brickSize - 1) / cfg.brickSize);
        }
    }

    result.timing.cycles = cycles;
    return result;
}

} // namespace cnv::ref
