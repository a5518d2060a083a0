/**
 * @file
 * Synthetic activation traces — the stand-in for running Caffe over
 * ImageNet images (see DESIGN.md substitutions).
 *
 * CNV's timing depends only on layer geometry and on how zeros are
 * distributed across ZFNAf bricks, so traces are synthesised
 * directly per conv-layer input with: (1) a calibrated zero
 * fraction, (2) per-channel firing-rate diversity (some learned
 * features fire rarely — this drives brick-to-brick imbalance and
 * hence CNV stall time), and (3) a low-frequency spatial field
 * (features appear in parts of an image, not everywhere). Each
 * "image" is a distinct seed.
 */

#ifndef CNV_NN_TRACE_H
#define CNV_NN_TRACE_H

#include <cstdint>
#include <vector>

#include "nn/network.h"
#include "sim/rng.h"
#include "tensor/neuron_tensor.h"

namespace cnv::nn {

/** Statistical model of one layer-input activation tensor. */
struct SparsityModel
{
    /** Target fraction of exactly-zero neurons. */
    double zeroFraction = 0.44;
    /** Lognormal sigma of per-channel firing-rate multipliers. */
    double channelDispersion = 0.35;
    /** Lognormal sigma of the coarse spatial field. */
    double spatialDispersion = 0.30;
    /** Spatial field grid resolution (grid x grid control points). */
    int spatialGrid = 5;
    /** Mean non-zero magnitude in raw Q7.8 units. */
    double valueScaleRaw = 96.0;
    /** Lognormal sigma of non-zero magnitudes. */
    double valueSigma = 0.9;
};

/**
 * Synthesise an activation tensor with the model's statistics.
 * Non-zero values are strictly positive (post-ReLU data).
 */
tensor::NeuronTensor synthesizeActivations(tensor::Shape3 shape,
                                           const SparsityModel &model,
                                           sim::Rng &rng);

/**
 * A depth range of a conv layer's input attributed to the node that
 * produced it (through pool/LRN/concat pass-throughs).
 */
struct TraceSegment
{
    int depth = 0;
    /** Producing conv layer's conv index; -1 for the raw image. */
    int producerConvIndex = -1;
};

/** Decompose a conv node's input depth into producer segments. */
std::vector<TraceSegment> inputSegments(const Network &net, int convNodeId);

/**
 * Synthesise the input tensor of one conv layer for one "image".
 *
 * Segments fed by the raw image are dense; segments fed by earlier
 * conv layers use the consumer's calibrated inputZeroFraction, and
 * the producer's pruning threshold (if any) zeroes small values —
 * exactly what the encoder would have written to NM.
 */
tensor::NeuronTensor synthesizeConvInput(const Network &net, int convNodeId,
                                         std::uint64_t imageSeed,
                                         const PruneConfig *prune = nullptr);

/**
 * Per-brick non-zero counts of synthesizeConvInput(net, convNodeId,
 * imageSeed) without pruning, computed without drawing a single
 * activation value: equal to zfnaf::nonZeroCountMap of that tensor
 * at `brickSize` (1..255), dims (x, y, bricks per column). It
 * consumes each segment's stream exactly as the value synthesis
 * does (sim::Rng::skipNormal stands in for every value draw), so
 * the two paths cannot drift apart.
 */
tensor::Tensor3<std::uint8_t>
synthesizeConvInputCounts(const Network &net, int convNodeId,
                          std::uint64_t imageSeed, int brickSize);

/**
 * Synthesise one input "image": positive values with a strong
 * per-image low-frequency structure, so that different seeds
 * genuinely excite different features and functional networks
 * produce varied top-1 predictions (needed by the accuracy study).
 */
tensor::NeuronTensor synthesizeImage(tensor::Shape3 shape,
                                     std::uint64_t seed);

/**
 * Measured fraction of conv multiplication operands that are zero
 * for one image (Figure 1's metric): MAC-weighted input zero
 * fraction across all conv layers. Without a positive prune
 * threshold it reads count-only syntheses, never values.
 */
double zeroOperandFraction(const Network &net, std::uint64_t imageSeed,
                           const PruneConfig *prune = nullptr);

} // namespace cnv::nn

#endif // CNV_NN_TRACE_H
