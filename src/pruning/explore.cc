#include "pruning/explore.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "nn/trace.h"
#include "sim/logging.h"
#include "sim/parallel.h"
#include "timing/network_model.h"

namespace cnv::pruning {

using nn::Network;
using nn::PruneConfig;
using tensor::Fixed16;
using tensor::NeuronTensor;

namespace {

/** Seeded synthetic input image for the accuracy study. */
NeuronTensor
makeInput(const Network &net, std::uint64_t seed)
{
    return nn::synthesizeImage(net.node(0).outShape, seed);
}

/** Unpruned reference prediction for one image. */
struct Reference
{
    int top1 = -1;
    NeuronTensor input; ///< the image, reused by every pruned run
    NeuronTensor logits;
    double norm = 0.0; ///< L2 of the logits
};

std::vector<Reference>
referenceRuns(const Network &net, int images, std::uint64_t seed)
{
    std::vector<Reference> refs(images);
    sim::parallelFor(static_cast<std::size_t>(images), [&](std::size_t i) {
        refs[i].input = makeInput(net, seed + i);
        auto run = net.forward(refs[i].input);
        refs[i].top1 = run.top1;
        double sq = 0.0;
        for (const Fixed16 v : run.logits)
            sq += v.toDouble() * v.toDouble();
        refs[i].norm = std::sqrt(sq);
        refs[i].logits = std::move(run.logits);
    });
    return refs;
}

/**
 * Does the pruned run preserve the reference prediction? Top-1 must
 * match, and the logits must stay within `tolerance` relative L2
 * distortion. The distortion term keeps the proxy sensitive on deep
 * synthetic networks whose untrained argmax is weakly
 * input-dependent (a trained classifier with slightly distorted
 * logits very rarely changes its top-1); see DESIGN.md's accuracy
 * substitution.
 */
bool
predictionPreserved(const Reference &ref, const nn::ForwardResult &run,
                    double tolerance)
{
    if (run.top1 != ref.top1)
        return false;
    if (run.logits.shape() != ref.logits.shape())
        return false;
    double sq = 0.0;
    const Fixed16 *a = run.logits.data();
    const Fixed16 *b = ref.logits.data();
    for (std::size_t i = 0; i < ref.logits.size(); ++i) {
        const double d = a[i].toDouble() - b[i].toDouble();
        sq += d * d;
    }
    return std::sqrt(sq) <= tolerance * std::max(ref.norm, 1e-6);
}

/**
 * Fraction of images whose pruned prediction matches the reference.
 * `run(i)` produces image i's pruned forward pass; the images run
 * on the pool.
 */
template <typename Run>
double
agreementFraction(const std::vector<Reference> &refs, double tolerance,
                  Run &&run)
{
    int agree = 0;
    sim::parallelMapReduce(
        refs.size(),
        [&](std::size_t i) {
            return predictionPreserved(refs[i], run(i), tolerance);
        },
        [&](std::size_t, bool preserved) {
            if (preserved)
                ++agree;
        });
    return static_cast<double>(agree) / static_cast<double>(refs.size());
}

/** Agreement of `cfg` with full forward passes from each image. */
double
agreementFromImages(const Network &net, const std::vector<Reference> &refs,
                    const PruneConfig &cfg, double tolerance)
{
    nn::ForwardOptions opts;
    opts.prune = &cfg;
    return agreementFraction(refs, tolerance, [&](std::size_t i) {
        return net.forward(refs[i].input, opts);
    });
}

/** The relativeAccuracy() distortion tolerance. */
constexpr double kDefaultTolerance = 0.05;

} // namespace

double
relativeAccuracy(const Network &net, const PruneConfig &cfg, int images,
                 std::uint64_t seed)
{
    CNV_ASSERT(images > 0, "need at least one accuracy image");
    return agreementFromImages(net, referenceRuns(net, images, seed), cfg,
                               kDefaultTolerance);
}

std::vector<std::vector<int>>
thresholdGroups(const Network &net)
{
    std::vector<std::vector<int>> groups;
    std::vector<std::string> keys;
    for (int i = 0; i < net.convLayerCount(); ++i) {
        const std::string &name = net.node(net.convNodeIds()[i]).name;
        const std::string key = name.substr(0, name.find('/'));
        if (keys.empty() || keys.back() != key) {
            keys.push_back(key);
            groups.emplace_back();
        }
        groups.back().push_back(i);
    }
    return groups;
}

ExplorationPoint
searchLossless(const dadiannao::NodeConfig &cfg, const Network &fullNet,
               const Network &accNet, const SearchOptions &opts)
{
    CNV_ASSERT(fullNet.convLayerCount() == accNet.convLayerCount(),
               "accuracy network must mirror the full network's conv count");
    CNV_ASSERT(!opts.levels.empty(), "threshold ladder is empty");

    const int convs = fullNet.convLayerCount();
    const std::vector<Reference> refs =
        referenceRuns(accNet, opts.accuracyImages, opts.seed);

    std::vector<std::vector<int>> groups = opts.layerGroups;
    if (groups.empty())
        groups = thresholdGroups(fullNet);

    PruneConfig current;
    current.thresholds.assign(convs, opts.levels.front());
    nn::ForwardOptions underCurrent;
    underCurrent.prune = &current;

    // A candidate differs from `current` only at its group's convs,
    // so every node before the group's first conv computes the same
    // activations for all of the group's candidates. Each image keeps
    // one forward pass advanced under `current` to that point, and a
    // candidate finishes a copy of it. A prefix never covers a conv
    // whose threshold may still change: thresholds change only in the
    // group being searched, which lies at or after the prefix's end.
    std::vector<nn::ForwardState> states;
    states.reserve(refs.size());
    for (const Reference &ref : refs)
        states.push_back(accNet.begin(ref.input));
    auto accuracyOf = [&](const PruneConfig &candidate) {
        nn::ForwardOptions pruned;
        pruned.prune = &candidate;
        return agreementFraction(
            refs, opts.distortionTolerance,
            [&](std::size_t i) { return accNet.finish(states[i], pruned); });
    };

    // Greedy coordinate ascent: deeper layers tolerate larger
    // thresholds, so walk the ladder per group while the joint
    // configuration stays above the accuracy floor.
    std::optional<double> currentAccuracy;
    for (const std::vector<int> &group : groups) {
        int firstConv = accNet.nodeCount();
        for (int layer : group)
            firstConv = std::min(firstConv, accNet.convNodeIds().at(layer));
        sim::parallelFor(states.size(), [&](std::size_t i) {
            // A custom group order can need an earlier node than the
            // pass has reached: restart that pass from its image.
            if (states[i].next > firstConv)
                states[i] = accNet.begin(refs[i].input);
            accNet.advance(states[i], underCurrent, firstConv);
        });

        std::size_t level = 0;
        while (level + 1 < opts.levels.size()) {
            PruneConfig candidate = current;
            for (int layer : group)
                candidate.thresholds[layer] = opts.levels[level + 1];
            const double accuracy = accuracyOf(candidate);
            if (accuracy + 1e-12 < opts.accuracyFloor)
                break;
            current = candidate;
            currentAccuracy = accuracy;
            ++level;
        }
    }

    ExplorationPoint point;
    point.config = current;
    point.relativeAccuracy =
        currentAccuracy ? *currentAccuracy : accuracyOf(current);
    point.speedup = timing::speedup(cfg, fullNet, opts.timingImages,
                                    opts.seed, &current);
    return point;
}

std::vector<ExplorationPoint>
tradeoffSweep(const dadiannao::NodeConfig &cfg, const Network &fullNet,
              const Network &accNet, const SearchOptions &opts)
{
    const int convs = fullNet.convLayerCount();
    std::vector<PruneConfig> candidates;

    // Zero-skipping only (the leftmost point of Figure 14).
    candidates.emplace_back();

    // Uniform thresholds up the ladder.
    for (std::int32_t level : opts.levels) {
        if (level <= 0)
            continue;
        PruneConfig c;
        c.thresholds.assign(convs, level);
        candidates.push_back(std::move(c));
    }

    // Depth-ramped thresholds (deeper layers pruned harder), at
    // several intensities.
    for (double intensity : {0.5, 1.0, 2.0, 4.0}) {
        PruneConfig c;
        c.thresholds.resize(convs);
        for (int i = 0; i < convs; ++i) {
            const double frac = convs > 1
                ? static_cast<double>(i) / (convs - 1) : 0.0;
            const double raw = intensity * (2.0 + 30.0 * frac);
            // Round down to the nearest power of two (the hardware
            // exploration used power-of-two thresholds).
            std::int32_t pow2 = 1;
            while (pow2 * 2 <= raw)
                pow2 *= 2;
            c.thresholds[i] = raw < 1.0 ? 0 : pow2;
        }
        candidates.push_back(std::move(c));
    }

    // Every candidate is scored against the same unpruned references.
    CNV_ASSERT(opts.accuracyImages > 0, "need at least one accuracy image");
    const std::vector<Reference> refs =
        referenceRuns(accNet, opts.accuracyImages, opts.seed);
    std::vector<ExplorationPoint> points;
    points.reserve(candidates.size());
    for (PruneConfig &c : candidates) {
        ExplorationPoint pt;
        pt.relativeAccuracy =
            agreementFromImages(accNet, refs, c, kDefaultTolerance);
        pt.speedup = timing::speedup(cfg, fullNet, opts.timingImages,
                                     opts.seed, &c);
        pt.config = std::move(c);
        points.push_back(std::move(pt));
    }
    std::sort(points.begin(), points.end(),
              [](const ExplorationPoint &a, const ExplorationPoint &b) {
                  return a.speedup < b.speedup;
              });
    return points;
}

std::vector<ExplorationPoint>
paretoFrontier(std::vector<ExplorationPoint> points)
{
    std::sort(points.begin(), points.end(),
              [](const ExplorationPoint &a, const ExplorationPoint &b) {
                  return a.speedup < b.speedup;
              });
    // Scan from the fastest point down: keep points whose accuracy
    // exceeds every faster point's accuracy.
    std::vector<ExplorationPoint> frontier;
    double best = -1.0;
    for (auto it = points.rbegin(); it != points.rend(); ++it) {
        if (it->relativeAccuracy > best) {
            best = it->relativeAccuracy;
            frontier.push_back(*it);
        }
    }
    std::reverse(frontier.begin(), frontier.end());
    return frontier;
}

} // namespace cnv::pruning
