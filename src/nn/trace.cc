#include "nn/trace.h"

#include <algorithm>
#include <cmath>

#include "sim/logging.h"

namespace cnv::nn {

using tensor::Fixed16;
using tensor::NeuronTensor;
using tensor::Shape3;

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
 * Synthesise the depth range [zBase, zBase + depth) of `out` with the
 * model's statistics, zeroing magnitudes below `threshold` (0: none).
 *
 * Only the per-pixel spatial factor and the per-channel rate are
 * kept, not an 8-byte probability per element: each activity
 * probability spatial * rate * scale * active is formed where it is
 * used, always in that left-to-right order, so the doubles (and the
 * RNG draws they gate) are the same at every use. The build never
 * contracts these products into FMAs (CMakeLists.txt), which keeps
 * them identical across hosts too.
 */
void
synthesizeInto(NeuronTensor &out, int zBase, int depth,
               const SparsityModel &model, sim::Rng &rng,
               std::int32_t threshold)
{
    const Shape3 shape = out.shape();
    const std::size_t pixels = static_cast<std::size_t>(shape.x) * shape.y;
    const std::size_t stride = static_cast<std::size_t>(shape.z);
    Fixed16 *const base = out.data() + zBase;
    // A non-zero post-ReLU magnitude in raw units, then the prune.
    const double mu = std::log(model.valueScaleRaw) -
                      0.5 * model.valueSigma * model.valueSigma;
    auto draw = [&] {
        const double raw = std::clamp(
            std::exp(rng.normal(mu, model.valueSigma)), 1.0, 32767.0);
        const Fixed16 v =
            Fixed16::fromRaw(static_cast<std::int16_t>(std::lround(raw)));
        return threshold > 0 && v.rawAbs() < threshold ? Fixed16{} : v;
    };

    const double active = 1.0 - std::clamp(model.zeroFraction, 0.0, 1.0);
    if (active <= 0.0) {
        for (std::size_t p = 0; p < pixels; ++p)
            std::fill_n(base + p * stride, depth, Fixed16{});
        return;
    }
    if (active >= 1.0) {
        for (std::size_t p = 0; p < pixels; ++p)
            for (int z = 0; z < depth; ++z)
                base[p * stride + z] = draw();
        return;
    }

    // Per-channel firing-rate multipliers and a coarse spatial field.
    std::vector<double> channelRate(depth);
    for (double &r : channelRate)
        r = std::exp(rng.normal(0.0, model.channelDispersion));
    const int grid = std::max(2, model.spatialGrid);
    const SpatialField field(grid, model.spatialDispersion, rng);

    std::vector<double> spatial(pixels);
    for (int y = 0; y < shape.y; ++y) {
        const double v = shape.y > 1
            ? static_cast<double>(y) / (shape.y - 1) : 0.5;
        for (int x = 0; x < shape.x; ++x) {
            const double u = shape.x > 1
                ? static_cast<double>(x) / (shape.x - 1) : 0.5;
            spatial[static_cast<std::size_t>(y) * shape.x + x] =
                field.at(u, v);
        }
    }

    // Normalise so the mean activity probability matches the target;
    // clamping to [0,1] shifts the mean, so iterate a few times.
    double scale = 1.0;
    for (int iter = 0; iter < 4; ++iter) {
        double mean = 0.0;
        for (const double s : spatial)
            for (const double rate : channelRate)
                mean += std::min(1.0, s * rate * scale * active);
        mean /= static_cast<double>(pixels * channelRate.size());
        if (mean <= 0.0)
            break;
        scale *= active / mean;
    }

    for (std::size_t p = 0; p < pixels; ++p) {
        Fixed16 *const column = base + p * stride;
        for (int z = 0; z < depth; ++z) {
            const double prob =
                std::min(1.0, spatial[p] * channelRate[z] * scale * active);
            column[z] = rng.bernoulli(prob) ? draw() : Fixed16{};
        }
    }
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

void
applyPruneToConvInput(const Network &net, int convNodeId,
                      NeuronTensor &input, const PruneConfig &prune)
{
    const Node &conv = net.node(convNodeId);
    CNV_ASSERT(conv.kind == NodeKind::Conv,
               "applyPruneToConvInput needs a conv node");
    CNV_ASSERT(input.shape() == conv.inShape,
               "trace shape does not match the layer input");
    int zBase = 0;
    for (const TraceSegment &seg : inputSegments(net, convNodeId)) {
        const std::int32_t threshold = seg.producerConvIndex >= 0
            ? prune.forConvIndex(
                  static_cast<std::size_t>(seg.producerConvIndex))
            : 0;
        if (threshold > 0) {
            for (int y = 0; y < input.shape().y; ++y)
                for (int x = 0; x < input.shape().x; ++x)
                    for (int z = zBase; z < zBase + seg.depth; ++z) {
                        Fixed16 &v = input.at(x, y, z);
                        if (v.rawAbs() < threshold)
                            v = Fixed16{};
                    }
        }
        zBase += seg.depth;
    }
}

NeuronTensor
synthesizeConvInput(const Network &net, int convNodeId,
                    std::uint64_t imageSeed, const PruneConfig *prune)
{
    const Node &conv = net.node(convNodeId);
    CNV_ASSERT(conv.kind == NodeKind::Conv, "synthesizeConvInput needs conv");
    const Shape3 shape = conv.inShape;
    const std::vector<TraceSegment> segments = inputSegments(net, convNodeId);

    NeuronTensor out(shape);
    int zBase = 0;
    for (std::size_t si = 0; si < segments.size(); ++si) {
        const TraceSegment &seg = segments[si];
        // Independent stream per (image, conv layer, segment).
        sim::Rng rng = sim::Rng(imageSeed)
                           .fork(0x7a0000 + static_cast<std::uint64_t>(
                                                net.node(convNodeId).convIndex))
                           .fork(si);

        SparsityModel model;
        std::int32_t threshold = 0;
        if (seg.producerConvIndex < 0) {
            // Raw image data (or flattened FC data): essentially dense.
            model.zeroFraction = 0.01;
            model.channelDispersion = 0.05;
            model.spatialDispersion = 0.05;
        } else {
            model.zeroFraction = conv.conv.inputZeroFraction;
            if (prune) {
                threshold = prune->forConvIndex(
                    static_cast<std::size_t>(seg.producerConvIndex));
            }
        }

        synthesizeInto(out, zBase, seg.depth, model, rng, threshold);
        zBase += seg.depth;
    }
    return out;
}

double
zeroOperandFraction(const Network &net, std::uint64_t imageSeed,
                    const PruneConfig *prune)
{
    double weightedZero = 0.0;
    double totalMacs = 0.0;
    for (int id : net.convNodeIds()) {
        const Node &n = net.node(id);
        const NeuronTensor in = synthesizeConvInput(net, id, imageSeed, prune);
        // Every input neuron participates in the same number of
        // products for a given layer, so the operand zero fraction
        // equals the tensor zero fraction, MAC-weighted per layer.
        const double zf = tensor::zeroFraction(in);
        const double macs = static_cast<double>(n.macs());
        weightedZero += zf * macs;
        totalMacs += macs;
    }
    return totalMacs > 0.0 ? weightedZero / totalMacs : 0.0;
}

} // namespace cnv::nn
