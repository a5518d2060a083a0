/** @file Tests for the deterministic random number generator. */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "sim/rng.h"

namespace {

using cnv::sim::Rng;

TEST(Rng, SameSeedSameStream)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntRespectsBounds)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniformInt(std::int64_t{-5}, std::int64_t{5});
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(17);
    std::array<int, 8> hits{};
    for (int i = 0; i < 8000; ++i)
        ++hits[rng.uniformInt(std::uint64_t{8})];
    for (int h : hits)
        EXPECT_GT(h, 700); // each bucket near 1000
}

TEST(Rng, NormalMomentsAreSane)
{
    Rng rng(19);
    const int n = 200000;
    double sum = 0.0, sumSq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sumSq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.01);
    EXPECT_NEAR(sumSq / n, 1.0, 0.02);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(23);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.44);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.44, 0.01);
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic)
{
    Rng parent(31);
    Rng c1 = parent.fork(1);
    Rng c2 = parent.fork(2);
    Rng c1again = parent.fork(1);
    EXPECT_EQ(c1.next(), c1again.next());
    EXPECT_NE(c1.next(), c2.next());
}

// skipNormal() must consume exactly the draws normal() would, at
// either parity of the cached Box-Muller pair: every interleaving of
// normal/skipNormal calls (after 0 or 1 leading normal()) leaves the
// stream where an all-normal() run leaves it, and every normal() in
// between, including the sine half of a pair whose cosine half was
// skipped, returns the bit-identical deviate.
TEST(Rng, SkipNormalLeavesStreamWhereNormalWould)
{
    constexpr int kSteps = 6;
    for (std::uint64_t seed : {1ULL, 42ULL, 2016ULL}) {
        for (int lead = 0; lead < 2; ++lead) {
            for (unsigned pattern = 0; pattern < (1u << kSteps);
                 ++pattern) {
                Rng ref(seed), rng(seed);
                for (int i = 0; i < lead; ++i)
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(rng.normal()),
                              std::bit_cast<std::uint64_t>(ref.normal()));
                for (int step = 0; step < kSteps; ++step) {
                    const double expected = ref.normal();
                    if (pattern & (1u << step)) {
                        rng.skipNormal();
                    } else {
                        EXPECT_EQ(std::bit_cast<std::uint64_t>(rng.normal()),
                                  std::bit_cast<std::uint64_t>(expected))
                            << "seed " << seed << " lead " << lead
                            << " pattern " << pattern << " step " << step;
                    }
                }
                EXPECT_EQ(rng.next(), ref.next())
                    << "seed " << seed << " lead " << lead << " pattern "
                    << pattern;
            }
        }
    }

    // The explicit case: skipping a pair's cosine half leaves its
    // sine half pending, bit-identical to the eager one.
    Rng eager(7), lazy(7);
    eager.normal();
    lazy.skipNormal();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lazy.normal()),
              std::bit_cast<std::uint64_t>(eager.normal()));
    EXPECT_EQ(lazy.next(), eager.next());
}

} // namespace
