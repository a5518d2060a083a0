/**
 * @file
 * Deterministic random number generation for trace synthesis and
 * property tests.
 *
 * All stochastic behaviour in the simulator flows through Rng so
 * that every experiment is reproducible from a single seed. The
 * generator is xoshiro256++ seeded via splitmix64, which is fast,
 * has a 2^256-1 period, and (unlike std::mt19937 with
 * std::distributions) produces identical streams across standard
 * library implementations.
 */

#ifndef CNV_SIM_RNG_H
#define CNV_SIM_RNG_H

#include <array>
#include <cmath>
#include <cstdint>

namespace cnv::sim {

/** Deterministic pseudo-random number generator (xoshiro256++). */
class Rng
{
  public:
    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n); n must be > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal deviate (Box-Muller, cached pair). */
    double normal();

    /**
     * Advance the stream exactly as normal() would, without
     * computing the deviate: the next draw of any kind, normal()
     * included, returns what it would have returned after a
     * normal(). Costs no logarithm or trigonometry.
     */
    void skipNormal();

    /** Normal deviate with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /**
     * Derive an independent child generator. Used to give each
     * (network, layer, image) tuple its own stream so that changing
     * one layer's draw count does not perturb the others.
     */
    Rng fork(std::uint64_t stream) const;

  private:
    /** Draw a Box-Muller pair's two uniforms, u1 in (0, 1]. */
    void drawPairUniforms(double &u1, double &u2);

    /** What the pending second half of a Box-Muller pair holds. */
    enum class Pending : std::uint8_t
    {
        None,
        /** The sine half, computed by normal(). */
        Value,
        /** The pair's uniforms, drawn by skipNormal(); normal()
         *  computes the sine half from them on demand. */
        Uniforms,
    };

    std::array<std::uint64_t, 4> state_;
    Pending pending_ = Pending::None;
    double cachedNormal_ = 0.0;
    double pairU1_ = 0.0;
    double pairU2_ = 0.0;
};

} // namespace cnv::sim

#endif // CNV_SIM_RNG_H
