#include "nn/trace.h"

#include <algorithm>
#include <cmath>

#include "sim/logging.h"

namespace cnv::nn {

using tensor::Fixed16;
using tensor::NeuronTensor;
using tensor::Shape3;
using CountMap = tensor::Tensor3<std::uint8_t>;

namespace {

/** Bilinearly interpolated lognormal field over the (x, y) plane. */
class SpatialField
{
  public:
    SpatialField(int grid, double sigma, sim::Rng &rng) : grid_(grid)
    {
        values_.resize(static_cast<std::size_t>(grid) * grid);
        for (double &v : values_)
            v = std::exp(rng.normal(0.0, sigma));
    }

    double
    at(double u, double v) const
    {
        // u, v in [0, 1]; map onto the control grid.
        const double gx = u * (grid_ - 1);
        const double gy = v * (grid_ - 1);
        const int x0 = std::min(static_cast<int>(gx), grid_ - 2);
        const int y0 = std::min(static_cast<int>(gy), grid_ - 2);
        const double fx = gx - x0;
        const double fy = gy - y0;
        const double a = cell(x0, y0) * (1 - fx) + cell(x0 + 1, y0) * fx;
        const double b =
            cell(x0, y0 + 1) * (1 - fx) + cell(x0 + 1, y0 + 1) * fx;
        return a * (1 - fy) + b * fy;
    }

  private:
    double cell(int x, int y) const { return values_[y * grid_ + x]; }

    int grid_;
    std::vector<double> values_;
};

/**
 * The zero pattern of one synthesised depth range: per-channel
 * firing-rate multipliers and a coarse spatial field, normalised so
 * the mean activity probability matches the model's target.
 *
 * Only the per-pixel spatial factor and the per-channel rate are
 * kept, not an 8-byte probability per element: each activity
 * probability spatial * rate * scale * active is formed where it is
 * used, always in that left-to-right order, so the doubles (and the
 * RNG draws they gate) are the same at every use. The build never
 * contracts these products into FMAs (CMakeLists.txt), which keeps
 * them identical across hosts too.
 */
class ActivityPattern
{
  public:
    /** Draws the rates and the field from `rng` (neither when the
     *  target is all-zero or dense). */
    ActivityPattern(Shape3 shape, int depth, const SparsityModel &model,
                    sim::Rng &rng)
        : pixels_(static_cast<std::size_t>(shape.x) * shape.y),
          depth_(depth),
          active_(1.0 - std::clamp(model.zeroFraction, 0.0, 1.0))
    {
        if (active_ <= 0.0 || active_ >= 1.0)
            return;
        channelRate_.resize(static_cast<std::size_t>(depth));
        for (double &r : channelRate_)
            r = std::exp(rng.normal(0.0, model.channelDispersion));
        const int grid = std::max(2, model.spatialGrid);
        const SpatialField field(grid, model.spatialDispersion, rng);

        spatial_.resize(pixels_);
        for (int y = 0; y < shape.y; ++y) {
            const double v = shape.y > 1
                ? static_cast<double>(y) / (shape.y - 1) : 0.5;
            for (int x = 0; x < shape.x; ++x) {
                const double u = shape.x > 1
                    ? static_cast<double>(x) / (shape.x - 1) : 0.5;
                spatial_[static_cast<std::size_t>(y) * shape.x + x] =
                    field.at(u, v);
            }
        }

        // Clamping each probability to [0,1] shifts the mean, so the
        // normalisation iterates a few times.
        for (int iter = 0; iter < 4; ++iter) {
            double mean = 0.0;
            for (const double s : spatial_)
                for (const double rate : channelRate_)
                    mean += std::min(1.0, s * rate * scale_ * active_);
            mean /= static_cast<double>(pixels_ * channelRate_.size());
            if (mean <= 0.0)
                break;
            scale_ *= active_ / mean;
        }
    }

    /**
     * Draw the pattern in storage order (pixel-major, depth
     * fastest), calling onNonZero(pixel, z) for each active element
     * right after its Bernoulli draw. The callback makes the
     * element's value draw on the same `rng`, so every consumer of
     * the pattern sees the same stream.
     */
    template <typename OnNonZero>
    void
    draw(sim::Rng &rng, OnNonZero &&onNonZero) const
    {
        if (active_ <= 0.0)
            return;
        for (std::size_t p = 0; p < pixels_; ++p) {
            for (int z = 0; z < depth_; ++z) {
                if (active_ >= 1.0 ||
                    rng.bernoulli(std::min(1.0, spatial_[p] *
                                                    channelRate_[z] *
                                                    scale_ * active_)))
                    onNonZero(p, z);
            }
        }
    }

  private:
    std::size_t pixels_;
    int depth_;
    double active_;
    double scale_ = 1.0;
    std::vector<double> channelRate_;
    std::vector<double> spatial_;
};

/**
 * Synthesise the depth range [zBase, zBase + depth) of `out` (which
 * starts all-zero) with the model's statistics, zeroing magnitudes
 * below `threshold` (0: none).
 */
void
synthesizeInto(NeuronTensor &out, int zBase, int depth,
               const SparsityModel &model, sim::Rng &rng,
               std::int32_t threshold)
{
    const ActivityPattern pattern(out.shape(), depth, model, rng);
    const std::size_t stride = static_cast<std::size_t>(out.shape().z);
    Fixed16 *const base = out.data() + zBase;
    // A non-zero post-ReLU magnitude in raw units, then the prune.
    const double mu = std::log(model.valueScaleRaw) -
                      0.5 * model.valueSigma * model.valueSigma;
    pattern.draw(rng, [&](std::size_t p, int z) {
        const double raw = std::clamp(
            std::exp(rng.normal(mu, model.valueSigma)), 1.0, 32767.0);
        const Fixed16 v =
            Fixed16::fromRaw(static_cast<std::int16_t>(std::lround(raw)));
        if (threshold <= 0 || v.rawAbs() >= threshold)
            base[p * stride + z] = v;
    });
}

/**
 * synthesizeInto without a threshold, keeping only the count of
 * non-zero elements per brick of `counts` (which starts all-zero).
 * Every drawn value is clamped to >= 1 raw unit, so an element is
 * non-zero exactly when its Bernoulli draw succeeds; the value draw
 * itself only has to advance the stream.
 */
void
countInto(CountMap &counts, Shape3 shape, int zBase, int depth,
          int brickSize, const SparsityModel &model, sim::Rng &rng)
{
    const ActivityPattern pattern(shape, depth, model, rng);
    std::vector<std::size_t> brickOf(static_cast<std::size_t>(depth));
    for (int z = 0; z < depth; ++z)
        brickOf[static_cast<std::size_t>(z)] =
            static_cast<std::size_t>((zBase + z) / brickSize);
    const std::size_t bricks = static_cast<std::size_t>(counts.shape().z);
    std::uint8_t *const base = counts.data();
    pattern.draw(rng, [&](std::size_t p, int z) {
        rng.skipNormal();
        ++base[p * bricks + brickOf[static_cast<std::size_t>(z)]];
    });
}

/** One producer segment of a conv input, ready to synthesise. */
struct SegmentSource
{
    int zBase = 0;
    int depth = 0;
    SparsityModel model;
    /** Independent stream per (image, conv layer, segment). */
    sim::Rng rng;
    /** The producer's prune threshold (0: none). */
    std::int32_t threshold = 0;
};

/** The segments synthesizeConvInput fills, in depth order. */
std::vector<SegmentSource>
segmentSources(const Network &net, int convNodeId, std::uint64_t imageSeed,
               const PruneConfig *prune)
{
    const Node &conv = net.node(convNodeId);
    CNV_ASSERT(conv.kind == NodeKind::Conv, "synthesizeConvInput needs conv");
    const std::vector<TraceSegment> segments = inputSegments(net, convNodeId);

    std::vector<SegmentSource> sources;
    int zBase = 0;
    for (std::size_t si = 0; si < segments.size(); ++si) {
        const TraceSegment &seg = segments[si];
        SegmentSource src;
        src.zBase = zBase;
        src.depth = seg.depth;
        src.rng = sim::Rng(imageSeed)
                      .fork(0x7a0000 +
                            static_cast<std::uint64_t>(conv.convIndex))
                      .fork(si);
        if (seg.producerConvIndex < 0) {
            // Raw image data (or flattened FC data): essentially dense.
            src.model.zeroFraction = 0.01;
            src.model.channelDispersion = 0.05;
            src.model.spatialDispersion = 0.05;
        } else {
            src.model.zeroFraction = conv.conv.inputZeroFraction;
            if (prune) {
                src.threshold = prune->forConvIndex(
                    static_cast<std::size_t>(seg.producerConvIndex));
            }
        }
        sources.push_back(std::move(src));
        zBase += seg.depth;
    }
    return sources;
}

} // namespace

NeuronTensor
synthesizeActivations(Shape3 shape, const SparsityModel &model, sim::Rng &rng)
{
    NeuronTensor out(shape);
    synthesizeInto(out, 0, shape.z, model, rng, 0);
    return out;
}

NeuronTensor
synthesizeImage(Shape3 shape, std::uint64_t seed)
{
    sim::Rng rng(seed ^ 0x1a2b3c4dULL);
    // Coarse per-image content field plus per-channel gains: two
    // images differ in *where* and *in which channels* they have
    // energy, not just in pixel noise.
    SpatialField field(4, 0.7, rng);
    std::vector<double> channelGain(shape.z);
    for (double &g : channelGain)
        g = std::exp(rng.normal(0.0, 0.3));

    // Raw draw, then a global normalisation to constant mean energy
    // (images differ in structure, not overall brightness — fixed
    // biases downstream would otherwise amplify energy differences).
    std::vector<double> raw(shape.volume());
    std::size_t idx = 0;
    double sum = 0.0;
    for (int y = 0; y < shape.y; ++y) {
        const double v = shape.y > 1
            ? static_cast<double>(y) / (shape.y - 1) : 0.5;
        for (int x = 0; x < shape.x; ++x) {
            const double u = shape.x > 1
                ? static_cast<double>(x) / (shape.x - 1) : 0.5;
            const double local = field.at(u, v);
            for (int z = 0; z < shape.z; ++z) {
                const double val = std::abs(rng.normal(0.4, 0.2)) * local *
                                   channelGain[z];
                raw[idx++] = val;
                sum += val;
            }
        }
    }
    const double mean = sum / static_cast<double>(raw.size());
    const double norm = mean > 1e-9 ? 0.4 / mean : 1.0;

    NeuronTensor out(shape);
    Fixed16 *data = out.data();
    for (std::size_t i = 0; i < raw.size(); ++i)
        data[i] = Fixed16::fromDouble(raw[i] * norm);
    return out;
}

std::vector<TraceSegment>
inputSegments(const Network &net, int convNodeId)
{
    const Node &conv = net.node(convNodeId);
    CNV_ASSERT(conv.kind == NodeKind::Conv, "inputSegments expects a conv");

    // Walk upstream through pass-through nodes, concatenating the
    // segments of concat inputs in order.
    std::vector<TraceSegment> result;
    auto walk = [&](auto &&self, int id) -> void {
        const Node &n = net.node(id);
        switch (n.kind) {
          case NodeKind::Input:
            result.push_back({n.outShape.z, -1});
            return;
          case NodeKind::Conv:
            result.push_back({n.outShape.z, n.convIndex});
            return;
          case NodeKind::Pool:
          case NodeKind::Lrn:
          case NodeKind::Softmax:
            self(self, n.inputs[0]);
            return;
          case NodeKind::Concat:
            for (int in : n.inputs)
                self(self, in);
            return;
          case NodeKind::Fc:
            result.push_back({n.outShape.z, -1});
            return;
        }
    };
    walk(walk, conv.inputs[0]);

    int total = 0;
    for (const TraceSegment &s : result)
        total += s.depth;
    CNV_ASSERT(total == conv.inShape.z,
               "segment depths {} != input depth {} for '{}'", total,
               conv.inShape.z, conv.name);
    return result;
}

NeuronTensor
synthesizeConvInput(const Network &net, int convNodeId,
                    std::uint64_t imageSeed, const PruneConfig *prune)
{
    NeuronTensor out(net.node(convNodeId).inShape);
    for (SegmentSource &src :
         segmentSources(net, convNodeId, imageSeed, prune))
        synthesizeInto(out, src.zBase, src.depth, src.model, src.rng,
                       src.threshold);
    return out;
}

tensor::Tensor3<std::uint8_t>
synthesizeConvInputCounts(const Network &net, int convNodeId,
                          std::uint64_t imageSeed, int brickSize)
{
    if (brickSize < 1 || brickSize > 255)
        CNV_FATAL("brick size {} outside supported range for count map",
                  brickSize);
    const Shape3 shape = net.node(convNodeId).inShape;
    CountMap counts(shape.x, shape.y, (shape.z + brickSize - 1) / brickSize);
    for (SegmentSource &src :
         segmentSources(net, convNodeId, imageSeed, nullptr))
        countInto(counts, shape, src.zBase, src.depth, brickSize, src.model,
                  src.rng);
    return counts;
}

double
zeroOperandFraction(const Network &net, std::uint64_t imageSeed,
                    const PruneConfig *prune)
{
    // Only a positive threshold needs the values; without one the
    // count-only synthesis gives the same zeros.
    const bool prunes = prune != nullptr && prune->prunesValues();
    // The widest brick a count byte holds: the smallest count map.
    constexpr int kCountBrick = 255;
    double weightedZero = 0.0;
    double totalMacs = 0.0;
    for (int id : net.convNodeIds()) {
        const Node &n = net.node(id);
        // Every input neuron participates in the same number of
        // products for a given layer, so the operand zero fraction
        // equals the tensor zero fraction, MAC-weighted per layer.
        double zf = 0.0;
        if (prunes) {
            zf = tensor::zeroFraction(
                synthesizeConvInput(net, id, imageSeed, prune));
        } else {
            const CountMap counts =
                synthesizeConvInputCounts(net, id, imageSeed, kCountBrick);
            std::size_t nonZero = 0;
            for (const std::uint8_t c : counts)
                nonZero += c;
            // tensor::zeroFraction's numerator and division.
            const std::size_t size = n.inShape.volume();
            zf = size > 0 ? static_cast<double>(size - nonZero) /
                                static_cast<double>(size)
                          : 0.0;
        }
        const double macs = static_cast<double>(n.macs());
        weightedZero += zf * macs;
        totalMacs += macs;
    }
    return totalMacs > 0.0 ? weightedZero / totalMacs : 0.0;
}

} // namespace cnv::nn
