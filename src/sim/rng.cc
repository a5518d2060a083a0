#include "sim/rng.h"

#include "sim/logging.h"

namespace cnv::sim {

namespace {

/** splitmix64 step, used for seeding and stream derivation. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

double
boxMullerRadius(double u1)
{
    return std::sqrt(-2.0 * std::log(u1));
}

double
boxMullerAngle(double u2)
{
    return 2.0 * 3.14159265358979323846 * u2;
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
    // xoshiro256++ requires a nonzero state; splitmix64 of any seed
    // yields all-zero with probability ~2^-256, but guard anyway.
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0)
        state_[0] = 1;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 random bits into the mantissa: uniform on [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    CNV_ASSERT(n > 0, "uniformInt range must be positive");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = ~0ULL - (~0ULL % n);
    std::uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return v % n;
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    CNV_ASSERT(lo <= hi, "uniformInt bounds out of order");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    return lo + static_cast<std::int64_t>(uniformInt(span));
}

void
Rng::drawPairUniforms(double &u1, double &u2)
{
    // u1 in (0,1] keeps the Box-Muller logarithm finite.
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
}

double
Rng::normal()
{
    switch (pending_) {
      case Pending::Value:
        pending_ = Pending::None;
        return cachedNormal_;
      case Pending::Uniforms:
        // Same expression as the eager sine half below, so the
        // deviate is bit-identical whichever call drew the pair.
        pending_ = Pending::None;
        return boxMullerRadius(pairU1_) * std::sin(boxMullerAngle(pairU2_));
      case Pending::None:
        break;
    }
    double u1 = 0.0;
    double u2 = 0.0;
    drawPairUniforms(u1, u2);
    const double r = boxMullerRadius(u1);
    const double theta = boxMullerAngle(u2);
    cachedNormal_ = r * std::sin(theta);
    pending_ = Pending::Value;
    return r * std::cos(theta);
}

void
Rng::skipNormal()
{
    if (pending_ != Pending::None) {
        pending_ = Pending::None;
        return;
    }
    drawPairUniforms(pairU1_, pairU2_);
    pending_ = Pending::Uniforms;
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

Rng
Rng::fork(std::uint64_t stream) const
{
    // Derive a child seed from the parent state and the stream id so
    // that distinct streams are decorrelated.
    std::uint64_t s = state_[0] ^ (state_[1] + 0x632be59bd9b4e019ULL * (stream + 1));
    return Rng(splitmix64(s));
}

} // namespace cnv::sim
