/**
 * @file
 * Tests for the architecture registry: lookup semantics, stable
 * iteration order, selection parsing, and a golden matrix pinning
 * every built-in's cycles, power and area bit for bit.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "arch/registry.h"
#include "nn/zoo/zoo.h"
#include "sim/error.h"
#include "timing/network_model.h"

namespace {

using namespace cnv;

TEST(ArchRegistry, BuiltinLookup)
{
    const arch::ArchRegistry &reg = arch::builtin();
    const arch::ArchModel *base = reg.find("dadiannao");
    ASSERT_NE(base, nullptr);
    EXPECT_EQ(base->id(), "dadiannao");
    EXPECT_EQ(base->displayName(), "DaDianNao baseline");
    EXPECT_EQ(reg.find("not-an-arch"), nullptr);
    EXPECT_EQ(&reg.get("cnv"), reg.find("cnv"));
}

TEST(ArchRegistry, UnknownArchIsFatalAndListsKnownIds)
{
    try {
        arch::builtin().get("tpu");
        FAIL() << "expected FatalError";
    } catch (const sim::FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("tpu"), std::string::npos);
        EXPECT_NE(msg.find("dadiannao"), std::string::npos);
        EXPECT_NE(msg.find("cnv"), std::string::npos);
    }
}

TEST(ArchRegistry, StableIterationOrder)
{
    const std::vector<std::string> expected{
        "dadiannao", "cnv",    "cnv2",    "cnv-pruned",
        "cnv-b4",    "cnv-b8", "cnv-b32"};
    EXPECT_EQ(arch::builtin().ids(), expected);
}

TEST(ArchRegistry, SelectParsesCsvInOrder)
{
    const auto sel = arch::builtin().select("cnv, dadiannao");
    ASSERT_EQ(sel.size(), 2u);
    EXPECT_EQ(sel[0]->id(), "cnv");
    EXPECT_EQ(sel[1]->id(), "dadiannao");
    EXPECT_THROW(arch::builtin().select("cnv,cnv"), sim::FatalError);
    EXPECT_THROW(arch::builtin().select("cnv,,dadiannao"),
                 sim::FatalError);
    EXPECT_THROW(arch::builtin().select("eyeriss"), sim::FatalError);
}

TEST(ArchRegistry, DuplicateAddIsFatal)
{
    arch::ArchRegistry reg;
    reg.add(arch::makeCnvVariant("cnv-b2", "two-neuron bricks", 2));
    EXPECT_THROW(
        reg.add(arch::makeCnvVariant("cnv-b2", "again", 2)),
        sim::FatalError);
}

TEST(ArchRegistry, CanonicalPairIsDadiannaoThenCnv)
{
    const auto pair = arch::canonicalPair();
    ASSERT_EQ(pair.size(), 2u);
    EXPECT_EQ(pair[0]->id(), "dadiannao");
    EXPECT_EQ(pair[1]->id(), "cnv");
}

/**
 * Golden matrix: every built-in x memory model on nin (seed 2016),
 * pinning the cycle total and the exact power and area doubles. The
 * values were recorded before the registry rows became data
 * (Dataflow + Overheads), so any drift in timing, power or area is a
 * behaviour change, not a refactor.
 */
TEST(ArchRegistry, GoldenMatrix)
{
    const struct
    {
        const char *id;
        mem::Kind memKind;
        std::uint64_t cycles;
        double watts;
        double area;
    } golden[] = {
        {"dadiannao", mem::Kind::Ideal, 362123u, 0x1.f4546349d8ea1p+3,
         0x1.0e66666666666p+6},
        {"cnv", mem::Kind::Ideal, 287346u, 0x1.daad6c1ad777p+3,
         0x1.1a94467381d7dp+6},
        {"cnv2", mem::Kind::Ideal, 262934u, 0x1.9abaa0c7856ecp+3,
         0x1.199e83e425aeep+6},
        {"cnv-pruned", mem::Kind::Ideal, 277953u, 0x1.d6efee22c0e66p+3,
         0x1.1a94467381d7dp+6},
        {"cnv-b4", mem::Kind::Ideal, 986520u, 0x1.f4407564760bap+2,
         0x1.1a94467381d7dp+6},
        {"cnv-b8", mem::Kind::Ideal, 511967u, 0x1.4c678d57414ebp+3,
         0x1.1a94467381d7dp+6},
        {"cnv-b32", mem::Kind::Ideal, 183336u, 0x1.57181014fee71p+4,
         0x1.1a94467381d7dp+6},
        {"dadiannao", mem::Kind::Banked, 362123u, 0x1.f4546349d8ea1p+3,
         0x1.0e66666666666p+6},
        {"cnv", mem::Kind::Banked, 300040u, 0x1.cd5525f243c4cp+3,
         0x1.1a94467381d7dp+6},
        {"cnv2", mem::Kind::Banked, 277320u, 0x1.8d6fd901a4242p+3,
         0x1.199e83e425aeep+6},
        {"cnv-pruned", mem::Kind::Banked, 292595u, 0x1.c7570ca879d8p+3,
         0x1.1a94467381d7dp+6},
        {"cnv-b4", mem::Kind::Banked, 1078663u, 0x1.e4ba08d5648fp+2,
         0x1.1a94467381d7dp+6},
        {"cnv-b8", mem::Kind::Banked, 555264u, 0x1.3ee72d0b00128p+3,
         0x1.1a94467381d7dp+6},
        {"cnv-b32", mem::Kind::Banked, 187269u, 0x1.518f89f6102b1p+4,
         0x1.1a94467381d7dp+6},
    };
    ASSERT_EQ(std::size(golden), 2 * arch::builtin().models().size());

    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    for (const auto &g : golden) {
        const arch::ArchModel &model = arch::builtin().get(g.id);
        timing::RunOptions opts;
        opts.imageSeed = 2016;
        opts.memKind = g.memKind;
        const auto run = model.simulateNetwork({}, *net, opts);
        const std::string where =
            std::string(g.id) +
            (g.memKind == mem::Kind::Ideal ? " ideal" : " banked");
        EXPECT_EQ(run.architecture, g.id);
        EXPECT_EQ(run.totalCycles(), g.cycles) << where;
        const auto e = run.totalEnergy();
        EXPECT_EQ(model.power(e, run.totalCycles()).total(), g.watts)
            << where;
        EXPECT_EQ(model.metrics(e, run.totalCycles()).watts, g.watts)
            << where;
        EXPECT_EQ(model.area().total(), g.area) << where;
    }
}

/**
 * The memory-hierarchy counters behind the banked rows above: every
 * built-in on nin (seed 2016, --mem banked), pinning the whole-run
 * mem::Counters totals. Recorded before the banked NM replay and the
 * global buffer's slot indexing were rewritten, so a changed
 * conflict count or GB hit pattern fails here even where it would
 * leave the cycle total unchanged.
 */
TEST(ArchRegistry, GoldenBankedCounters)
{
    const struct
    {
        const char *id;
        dadiannao::MemTrace mem;
    } golden[] = {
        {"dadiannao", {357434, 0, 0, 0, 0, 15179840, 29649}},
        {"cnv", {175210, 46, 182224, 78982, 42214, 15179840, 29649}},
        {"cnv2", {175210, 46, 182224, 78982, 42214, 15179840, 29649}},
        {"cnv-pruned", {175210, 46, 182224, 78982, 42214, 15179840, 29649}},
        {"cnv-b4", {604612, 0, 728896, 315928, 271512, 15179840, 29649}},
        {"cnv-b8", {318344, 39, 364448, 157964, 115276, 15179840, 29649}},
        {"cnv-b32", {103643, 19, 91112, 39491, 12776, 15179840, 29649}},
    };
    ASSERT_EQ(std::size(golden), arch::builtin().models().size());

    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    for (const auto &g : golden) {
        timing::RunOptions opts;
        opts.imageSeed = 2016;
        opts.memKind = mem::Kind::Banked;
        const auto m = arch::builtin()
                           .get(g.id)
                           .simulateNetwork({}, *net, opts)
                           .totalMem();
        EXPECT_EQ(m.nmAccesses, g.mem.nmAccesses) << g.id;
        EXPECT_EQ(m.nmConflictCycles, g.mem.nmConflictCycles) << g.id;
        EXPECT_EQ(m.gbHits, g.mem.gbHits) << g.id;
        EXPECT_EQ(m.gbMisses, g.mem.gbMisses) << g.id;
        EXPECT_EQ(m.gbEvictions, g.mem.gbEvictions) << g.id;
        EXPECT_EQ(m.dramBytes, g.mem.dramBytes) << g.id;
        EXPECT_EQ(m.dramCycles, g.mem.dramCycles) << g.id;
    }
}

TEST(ArchRegistry, BrickVariantChangesGeometryAndTiming)
{
    const arch::ArchModel &b8 = arch::builtin().get("cnv-b8");
    const dadiannao::NodeConfig cfg = b8.nodeConfig({});
    EXPECT_EQ(cfg.brickSize, 8);
    EXPECT_EQ(cfg.lanes, 8);
    EXPECT_EQ(cfg.nmBanks, 8);

    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    timing::RunOptions opts;
    opts.imageSeed = 2016;
    const auto cnvRun =
        arch::builtin().get("cnv").simulateNetwork({}, *net, opts);
    const auto b8Run = b8.simulateNetwork({}, *net, opts);
    EXPECT_NE(b8Run.totalCycles(), cnvRun.totalCycles());
}

TEST(ArchRegistry, ValidateNodeEnforcesSharedInvariants)
{
    dadiannao::NodeConfig cfg;
    cfg.lanes = cfg.brickSize * 2;
    // One neuron lane drains one brick slot on every variant.
    EXPECT_THROW(arch::builtin().get("cnv").validateNode(cfg),
                 sim::FatalError);
    EXPECT_THROW(arch::builtin().get("dadiannao").validateNode(cfg),
                 sim::FatalError);
    // A brick variant's own geometry is self-consistent, so the
    // validator accepts what nodeConfig() produced.
    const arch::ArchModel &b8 = arch::builtin().get("cnv-b8");
    EXPECT_NO_THROW(b8.validateNode(b8.nodeConfig({})));
}

/** Weight skipping can only remove work on top of CNV's activation
 *  skipping, so cnv2 is at least as fast on every network at the
 *  default weight sparsity. */
TEST(ArchRegistry, Cnv2AtLeastAsFastAsCnv)
{
    timing::RunOptions opts;
    opts.imageSeed = 2016;
    const arch::ArchModel &cnv = arch::builtin().get("cnv");
    const arch::ArchModel &cnv2 = arch::builtin().get("cnv2");
    for (auto id : nn::zoo::allNetworks()) {
        const auto net = nn::zoo::build(id, 2016);
        const auto cnvRun = cnv.simulateNetwork({}, *net, opts);
        const auto cnv2Run = cnv2.simulateNetwork({}, *net, opts);
        EXPECT_LE(cnv2Run.totalCycles(), cnvRun.totalCycles())
            << nn::zoo::netName(id);
    }
    // On the synthesized (weight-sparse) nets the skipping must
    // actually bite somewhere, not just tie.
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    EXPECT_LT(cnv2.simulateNetwork({}, *net, opts).totalCycles(),
              cnv.simulateNetwork({}, *net, opts).totalCycles());
}

/** With the weight-sparsity knob at zero no weight brick is ever
 *  ineffectual, and the cnv2 schedule degenerates to cnv's exactly
 *  — cycles, activity, energy, and stall attribution. */
TEST(ArchRegistry, Cnv2AtZeroWeightSparsityMatchesCnv)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    timing::RunOptions opts;
    opts.imageSeed = 2016;
    opts.weightSparsity = 0.0;
    const auto cnvRun =
        arch::builtin().get("cnv").simulateNetwork({}, *net, opts);
    const auto cnv2Run =
        arch::builtin().get("cnv2").simulateNetwork({}, *net, opts);
    EXPECT_EQ(cnv2Run.totalCycles(), cnvRun.totalCycles());
    const auto a = cnvRun.totalActivity();
    const auto a2 = cnv2Run.totalActivity();
    EXPECT_EQ(a2.zero, a.zero);
    EXPECT_EQ(a2.nonZero, a.nonZero);
    EXPECT_EQ(a2.stall, a.stall);
    const auto e = cnvRun.totalEnergy();
    const auto e2 = cnv2Run.totalEnergy();
    EXPECT_EQ(e2.sbReads, e.sbReads);
    EXPECT_EQ(e2.nmReads, e.nmReads);
    EXPECT_EQ(e2.multOps, e.multOps);
    const auto m = cnvRun.totalMicro();
    const auto m2 = cnv2Run.totalMicro();
    EXPECT_EQ(m2.laneBusyCycles, m.laneBusyCycles);
    EXPECT_EQ(m2.laneIdleCycles, m.laneIdleCycles);
}

/** Every idle lane-cycle the cnv2 model reports carries a stall
 *  reason (the invariant the trace pipeline asserts), and repeated
 *  runs are deterministic. */
TEST(ArchRegistry, Cnv2StallAttributionCoversIdleCycles)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    timing::RunOptions opts;
    opts.imageSeed = 2016;
    const arch::ArchModel &cnv2 = arch::builtin().get("cnv2");
    const auto run = cnv2.simulateNetwork({}, *net, opts);
    const auto micro = run.totalMicro();
    EXPECT_EQ(micro.stalls.total(), micro.laneIdleCycles);
    const auto again = cnv2.simulateNetwork({}, *net, opts);
    EXPECT_EQ(again.totalCycles(), run.totalCycles());
}

TEST(ArchRegistry, CnvPrunedDefaultsToUniformThresholds)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    timing::RunOptions opts;
    opts.imageSeed = 2016;
    const arch::ArchModel &cnv = arch::builtin().get("cnv");
    const arch::ArchModel &pruned = arch::builtin().get("cnv-pruned");

    // Without an explicit config, cnv-pruned applies its default
    // uniform thresholds and skips more than plain cnv.
    const auto plain = cnv.simulateNetwork({}, *net, opts);
    const auto defaulted = pruned.simulateNetwork({}, *net, opts);
    EXPECT_LT(defaulted.totalCycles(), plain.totalCycles());

    // With an explicit config, both models honour it identically.
    nn::PruneConfig explicitCfg;
    explicitCfg.thresholds.assign(net->convLayerCount(), 32);
    opts.prune = &explicitCfg;
    EXPECT_EQ(pruned.simulateNetwork({}, *net, opts).totalCycles(),
              cnv.simulateNetwork({}, *net, opts).totalCycles());
}

} // namespace
