/**
 * @file
 * Closed-form per-layer timing/activity models for the dense
 * (DaDianNao) and encoded (CNV, Cnvlutin2) conv dataflows.
 *
 * These consume only layer geometry plus a per-brick non-zero count
 * map of the layer's input, and produce exactly the same cycle
 * counts, activity events, and energy counters as the cycle-level
 * reference models in ref/dadiannao_nfu.* and ref/cnv_unit.*
 * (tests/arch/test_cross_validation.cc and the property tests enforce
 * bit-exact agreement on randomized layers). They exist so that
 * full-network experiments and pruning sweeps run in seconds
 * instead of hours; every experiment can be spot-checked against
 * the detailed models.
 */

#ifndef CNV_TIMING_CONV_MODEL_H
#define CNV_TIMING_CONV_MODEL_H

#include <cstdint>

#include "dadiannao/config.h"
#include "dadiannao/metrics.h"
#include "mem/banked_memory.h"
#include "nn/layer.h"
#include "tensor/tensor.h"

namespace cnv::timing {

/** Per-brick non-zero counts of a layer input (x, y, depth-brick). */
using CountMap = tensor::Tensor3<std::uint8_t>;

/**
 * Baseline (DaDianNao) conv layer timing.
 *
 * @param cfg Node configuration.
 * @param p Conv parameters.
 * @param inShape Input array shape.
 * @param counts Per-brick non-zero counts of the input.
 * @param isConv1 Account all processing as the conv1 category.
 * @param mem Optional memory model every NM access is issued
 *        against; nullptr (the ideal hierarchy) keeps the result
 *        bit-identical to a model-free run.
 */
dadiannao::LayerResult convBaseline(const dadiannao::NodeConfig &cfg,
                                    const nn::ConvParams &p,
                                    const tensor::Shape3 &inShape,
                                    const CountMap &counts, bool isConv1,
                                    mem::BankedMemory *mem = nullptr);

/**
 * Encoded-mode (zero-skipping) conv layer timing: CNV, and Cnvlutin2
 * when `weightSparsity` > 0 (arXiv 1705.00125). A lane advances past
 * an (activation brick, weight brick) pair when either side is
 * ineffectual: empty activation bricks cost one dispatcher slot (or
 * none, see NodeConfig::emptyBrickCostsCycle), and activation bricks
 * whose matching weight brick is ineffectual for the whole in-flight
 * filter group are stepped past in the same single slot (the NM
 * fetch still happens; only the serialised multiply-cycles
 * disappear). Which weight bricks are ineffectual is a deterministic
 * hash of (conv layer, kernel position, depth brick, filter pass) at
 * rate `weightSparsity` — a stand-in for the static post-pruning
 * schedule Cnvlutin2 compiles offline. At weightSparsity == 0 no
 * weight brick is skipped and the model is plain CNV.
 *
 * @param mem Optional memory model, as for convBaseline.
 * @param convIndex The layer's conv index (weight-schedule seed).
 * @param weightSparsity Ineffectual weight-brick fraction in [0, 1].
 */
dadiannao::LayerResult convCnv(const dadiannao::NodeConfig &cfg,
                               const nn::ConvParams &p,
                               const tensor::Shape3 &inShape,
                               const CountMap &counts,
                               mem::BankedMemory *mem = nullptr,
                               int convIndex = 0,
                               double weightSparsity = 0.0);

} // namespace cnv::timing

#endif // CNV_TIMING_CONV_MODEL_H
