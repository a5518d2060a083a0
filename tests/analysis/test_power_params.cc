/** @file Tests for PowerParams customization and Overheads blocks. */

#include <gtest/gtest.h>

#include "power/model.h"
#include "sim/error.h"
#include "sim/logging.h"

namespace {

using namespace cnv;
using power::PowerParams;

constexpr power::Overheads kBaseline{};

TEST(Overheads, EachFactorScalesOnlyItsComponent)
{
    power::Overheads o;
    o.nmArea = 2.0;
    const auto base = power::areaOf(kBaseline);
    const auto scaled = power::areaOf(o);
    EXPECT_DOUBLE_EQ(scaled.nm, base.nm * 2.0);
    EXPECT_DOUBLE_EQ(scaled.sb, base.sb);
    EXPECT_DOUBLE_EQ(scaled.logic, base.logic);
    EXPECT_DOUBLE_EQ(scaled.sram, base.sram);

    // NM static power follows its area and its banking leakage.
    o.nmBankingStatic = 1.5;
    dadiannao::EnergyCounters c;
    c.nmReads = 1'000'000;
    const auto pb = power::powerOf(kBaseline, c, 1000);
    const auto po = power::powerOf(o, c, 1000);
    EXPECT_DOUBLE_EQ(po.nmStatic, pb.nmStatic * 3.0);
    EXPECT_DOUBLE_EQ(po.nmDynamic, pb.nmDynamic);
    o.nmAccess = 4.0;
    EXPECT_DOUBLE_EQ(power::powerOf(o, c, 1000).nmDynamic,
                     pb.nmDynamic * 4.0);
}

/** The all-1.0 block is the baseline node itself, to the last bit. */
TEST(Overheads, DefaultBlockIsTheUnscaledBaseline)
{
    const PowerParams p;
    const auto a = power::areaOf(kBaseline, p);
    EXPECT_EQ(a.nm, p.nmArea);
    EXPECT_EQ(a.sram, p.sramArea);
    EXPECT_EQ(a.logic, p.logicArea);
    dadiannao::EnergyCounters c;
    c.nmReads = 12345;
    c.nbinReads = 678;
    const auto pb = power::powerOf(kBaseline, c, 1000, p);
    EXPECT_EQ(pb.nmStatic, p.nmStaticW);
    EXPECT_EQ(pb.sramStatic, p.sramStaticW);
    EXPECT_EQ(pb.logicStatic, p.logicStaticW);
    EXPECT_EQ(pb.nmDynamic,
              static_cast<double>(c.nmReads) * p.nmAccessPj * 1e-12 /
                  (1000 / (p.clockGhz * 1e9)));
}

TEST(PowerParams, EventEnergiesScaleDynamicPowerLinearly)
{
    dadiannao::EnergyCounters c;
    c.sbReads = 1'000'000;
    PowerParams p1, p2;
    p2.sbReadPj = p1.sbReadPj * 3.0;
    const auto a = power::powerOf(kBaseline, c, 1000, p1);
    const auto b = power::powerOf(kBaseline, c, 1000, p2);
    EXPECT_NEAR(b.sbDynamic, a.sbDynamic * 3.0, 1e-12);
}

TEST(PowerParams, ClockScalesTimeAndPower)
{
    dadiannao::EnergyCounters c;
    c.multOps = 1'000'000;
    PowerParams slow, fast;
    fast.clockGhz = 2.0;
    const auto ms = power::metricsOf(kBaseline, c, 1'000'000, slow);
    const auto mf = power::metricsOf(kBaseline, c, 1'000'000, fast);
    EXPECT_NEAR(mf.seconds, ms.seconds / 2.0, 1e-15);
    // Same dynamic energy in half the time: higher dynamic power.
    const auto ps = power::powerOf(kBaseline, c, 1'000'000, slow);
    const auto pf = power::powerOf(kBaseline, c, 1'000'000, fast);
    EXPECT_NEAR(pf.logicDynamic, ps.logicDynamic * 2.0, 1e-12);
}

TEST(PowerParams, OffchipBytesExcludedFromChipPower)
{
    dadiannao::EnergyCounters quiet, noisy;
    noisy.offchipBytes = 1u << 30;
    const auto a = power::powerOf(power::kCnvOverheads, quiet, 1000);
    const auto b = power::powerOf(power::kCnvOverheads, noisy, 1000);
    EXPECT_DOUBLE_EQ(a.total(), b.total());
}

TEST(PowerParams, ZeroCyclesIsFatal)
{
    sim::setVerbosity(sim::Verbosity::Silent);
    dadiannao::EnergyCounters c;
    EXPECT_THROW(power::powerOf(power::kCnvOverheads, c, 0), sim::PanicError);
    sim::setVerbosity(sim::Verbosity::Info);
}

} // namespace
