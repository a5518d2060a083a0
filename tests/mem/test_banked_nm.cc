/**
 * @file
 * Tests for the memory-hierarchy components: the banked NM's
 * conflict accounting against a hand-worked 4-bank example and
 * against a round-by-round queue replay on seeded random groups, the
 * baseline's conflict-free unit-wide pointer, the direct-mapped
 * global buffer against a tag-array oracle, and the assembled
 * mem::BankedMemory (GB filtering, fill hiding, per-layer drain
 * semantics).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "mem/banked_memory.h"
#include "mem/banked_nm.h"
#include "mem/global_buffer.h"
#include "mem/memory_model.h"
#include "sim/rng.h"

namespace {

using namespace cnv;
using mem::Access;
using Group = std::vector<Access>;

/** GlobalBuffer::filterGroup into a fresh buffer, cut to the misses. */
Group
filter(mem::GlobalBuffer &gb, const Group &fetches)
{
    Group misses(fetches.size());
    misses.resize(gb.filterGroup(fetches, misses));
    return misses;
}

/**
 * Hand-worked example, 4 banks, sliced fetch (address % 4 = bank):
 *
 *   lane 0 stream: addr 0 (bank 0), addr 1 (bank 1)
 *   lane 1 stream: addr 4 (bank 0), addr 5 (bank 1)
 *   lane 2 stream: addr 2 (bank 2)
 *   lane 3 stream: addr 3 (bank 3)
 *
 * Round 1 heads: banks {0, 0, 2, 3} — bank 0 serves two fetches, so
 * the round takes 2 cycles instead of 1 (+1 conflict).
 * Round 2 heads: banks {1, 1} — bank 1 serves two (+1 conflict).
 * Total: 2 conflict cycles for 6 accesses.
 */
TEST(BankedNm, HandWorkedFourBankExample)
{
    mem::BankedNm nm(4, /*slicedFetch=*/true);
    const std::vector<Access> group = {
        {0, 0}, {1, 4}, {2, 2}, {3, 3}, {0, 1}, {1, 5}};
    EXPECT_EQ(nm.serveGroup(group), 2u);
    EXPECT_EQ(nm.accesses(), 6u);
    EXPECT_EQ(nm.conflictCycles(), 2u);
}

TEST(BankedNm, AllLanesOnOneBankSerialiseFully)
{
    mem::BankedNm nm(4, /*slicedFetch=*/true);
    // Three lanes, three addresses, all mapping to bank 0: the bank
    // serves them over 3 cycles, 2 of which are conflict cost.
    EXPECT_EQ(nm.serveGroup(Group{{0, 0}, {1, 4}, {2, 8}}), 2u);
}

TEST(BankedNm, DistinctBanksNeverConflict)
{
    mem::BankedNm nm(4, /*slicedFetch=*/true);
    EXPECT_EQ(nm.serveGroup(Group{{0, 0}, {1, 1}, {2, 2}, {3, 3}}), 0u);
    EXPECT_EQ(nm.conflictCycles(), 0u);
}

TEST(BankedNm, UnitWidePointerNeverConflicts)
{
    // Same same-bank access pattern as above, but with the
    // baseline's single fetch pointer: one stream, one access per
    // cycle, no conflicts by construction.
    mem::BankedNm nm(4, /*slicedFetch=*/false);
    EXPECT_EQ(nm.serveGroup(Group{{0, 0}, {1, 4}, {2, 8}}), 0u);
    EXPECT_EQ(nm.accesses(), 3u);

    nm.addSequential(10);
    EXPECT_EQ(nm.accesses(), 13u);
    EXPECT_EQ(nm.conflictCycles(), 0u);
}

/**
 * Oracle: the queue replay BankedNm::serveGroup used before it
 * counted rounds, kept as it was (one in-order queue per stream,
 * std::queue in place of the bounded ring buffer it used). Every
 * round each non-empty stream presents its head, and the round
 * costs its busiest bank's head count minus one.
 */
std::uint64_t
queueReplay(const std::vector<Access> &fetches, int banks, bool slicedFetch)
{
    if (fetches.empty())
        return 0;

    int streams = 1;
    if (slicedFetch) {
        for (const Access &f : fetches)
            streams = std::max(streams, f.lane + 1);
    }
    std::vector<std::queue<int>> queue(static_cast<std::size_t>(streams));
    for (const Access &f : fetches) {
        const int s = slicedFetch ? f.lane : 0;
        queue[static_cast<std::size_t>(s)].push(
            static_cast<int>(f.address % static_cast<std::uint64_t>(banks)));
    }

    std::uint64_t conflict = 0;
    std::vector<std::uint32_t> perBank(static_cast<std::size_t>(banks));
    bool any = true;
    while (any) {
        any = false;
        std::fill(perBank.begin(), perBank.end(), 0u);
        for (std::queue<int> &q : queue) {
            if (q.empty())
                continue;
            ++perBank[static_cast<std::size_t>(q.front())];
            q.pop();
            any = true;
        }
        if (!any)
            break;
        const std::uint32_t busiest =
            *std::max_element(perBank.begin(), perBank.end());
        conflict += busiest - 1;
    }
    return conflict;
}

/**
 * A seeded random fetch group over `lanes` lanes. Half the groups
 * skew towards lane 0 (long streams, many rounds); addresses are
 * drawn either from a small range (frequent same-bank heads) or
 * from the whole 64-bit range (exercises the interleave on large
 * addresses).
 */
std::vector<Access>
randomGroup(sim::Rng &rng, int lanes, std::size_t size)
{
    const bool skewed = rng.bernoulli(0.5);
    const bool wide = rng.bernoulli(0.25);
    std::vector<Access> group(size);
    for (Access &a : group) {
        a.lane = skewed && rng.bernoulli(0.5)
            ? 0
            : static_cast<int>(
                  rng.uniformInt(static_cast<std::uint64_t>(lanes)));
        a.address = wide ? rng.next() : rng.uniformInt(256);
    }
    return group;
}

TEST(BankedNm, CountedRoundsMatchQueueReplay)
{
    sim::Rng rng(2016);
    for (const int banks : {1, 3, 4, 5, 16, 32}) {
        for (const bool sliced : {true, false}) {
            // One model per geometry serves every group, so the
            // scratch reused across calls is checked too.
            mem::BankedNm nm(banks, sliced);
            std::uint64_t accesses = 0;
            std::uint64_t conflict = 0;
            for (const int lanes : {1, 4, 16, 63, 64}) {
                for (const std::size_t size :
                     {std::size_t{0}, std::size_t{1}, std::size_t{7},
                      std::size_t{100}, std::size_t{1500}}) {
                    const auto group = randomGroup(rng, lanes, size);
                    const std::uint64_t want =
                        queueReplay(group, banks, sliced);
                    const std::string where =
                        "banks " + std::to_string(banks) +
                        (sliced ? " sliced" : " unit-wide") + " lanes " +
                        std::to_string(lanes) + " size " +
                        std::to_string(size);
                    EXPECT_EQ(nm.serveGroup(group), want) << where;
                    accesses += size;
                    conflict += want;
                    if (!sliced) {
                        EXPECT_EQ(want, 0u) << where;
                    }
                }
            }
            EXPECT_EQ(nm.accesses(), accesses);
            EXPECT_EQ(nm.conflictCycles(), conflict);
        }
    }
}

TEST(BankedNm, SmallGroupAfterLargeOneSeesNoStaleCounts)
{
    // A long single-lane stream grows the scratch; the next group
    // must start from zeroed counts.
    mem::BankedNm nm(4, /*slicedFetch=*/true);
    std::vector<Access> longStream;
    for (std::uint64_t a = 0; a < 64; ++a)
        longStream.push_back({5, a * 4}); // lane 5, all bank 0
    EXPECT_EQ(nm.serveGroup(longStream), 0u);
    EXPECT_EQ(nm.serveGroup(Group{{0, 0}, {1, 1}}), 0u);
    EXPECT_EQ(nm.serveGroup(Group{{0, 0}, {5, 4}}), 1u);
    EXPECT_EQ(nm.serveGroup(Group{}), 0u);
    EXPECT_EQ(nm.conflictCycles(), 1u);
}

/** Oracle: a plain direct-mapped tag array, slot = address % lines. */
struct TagArray
{
    explicit TagArray(std::uint64_t lines)
        : tag(static_cast<std::size_t>(lines))
    {
    }

    std::vector<std::optional<std::uint64_t>> tag;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    std::vector<Access>
    filter(const std::vector<Access> &fetches)
    {
        std::vector<Access> missed;
        for (const Access &f : fetches) {
            auto &slot = tag[f.address % tag.size()];
            if (slot == f.address) {
                ++hits;
                continue;
            }
            if (slot.has_value())
                ++evictions;
            slot = f.address;
            ++misses;
            missed.push_back(f);
        }
        return missed;
    }
};

TEST(GlobalBuffer, MatchesTagArrayOracle)
{
    sim::Rng rng(1605);
    for (const std::uint64_t lines : {1u, 7u, 16u, 4096u}) {
        mem::GlobalBuffer gb(lines);
        TagArray oracle(lines);
        for (int group = 0; group < 40; ++group) {
            // Every tenth group starts a new layer epoch.
            if (group % 10 == 9) {
                gb.invalidate();
                std::fill(oracle.tag.begin(), oracle.tag.end(),
                          std::nullopt);
            }
            std::vector<Access> fetches(
                static_cast<std::size_t>(rng.uniformInt(300)));
            for (Access &a : fetches) {
                a.lane = static_cast<int>(rng.uniformInt(16));
                a.address = rng.bernoulli(0.1)
                    ? rng.next()
                    : rng.uniformInt(3 * lines + 5);
            }
            const auto want = oracle.filter(fetches);
            const auto misses = filter(gb, fetches);
            const std::string where = "lines " + std::to_string(lines) +
                " group " + std::to_string(group);
            ASSERT_EQ(misses.size(), want.size()) << where;
            for (std::size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(misses[i].lane, want[i].lane) << where;
                EXPECT_EQ(misses[i].address, want[i].address) << where;
            }
        }
        EXPECT_EQ(gb.hits(), oracle.hits) << lines;
        EXPECT_EQ(gb.misses(), oracle.misses) << lines;
        EXPECT_EQ(gb.evictions(), oracle.evictions) << lines;
        EXPECT_GT(oracle.hits, 0u) << lines;
        EXPECT_GT(oracle.evictions, 0u) << lines;
    }
}

TEST(GlobalBuffer, DirectMappedHitsMissesAndEvictions)
{
    mem::GlobalBuffer gb(2);

    // Cold: both lines miss and are installed.
    EXPECT_EQ(filter(gb, {{0, 0}, {1, 1}}).size(), 2u);

    // Warm: the same addresses hit and never reach the NM.
    EXPECT_TRUE(filter(gb, {{0, 0}, {1, 1}}).empty());
    EXPECT_EQ(gb.hits(), 2u);

    // Address 2 maps to slot 0 (2 % 2) and evicts resident line 0.
    EXPECT_EQ(filter(gb, {{0, 2}}).size(), 1u);
    EXPECT_EQ(gb.evictions(), 1u);
    EXPECT_EQ(filter(gb, {{0, 0}}).size(), 1u); // 0 was evicted

    gb.invalidate();
    EXPECT_EQ(filter(gb, {{0, 1}}).size(), 1u); // cold again
}

TEST(BankedMemory, FiltersThroughGbAndHidesFills)
{
    mem::Geometry geo;
    geo.banks = 4;
    geo.slicedFetch = true;
    geo.nmBytes = 1 << 20;
    geo.gbLines = 16;
    geo.dramBytesPerCycle = 16;
    mem::BankedMemory model(geo);

    // Cold group: 2 misses, both on bank 0 (+1 conflict); with no
    // compute to hide behind, both fill cycles are exposed.
    const std::vector<Access> group = {{0, 0}, {1, 4}};
    mem::GroupCost cost = model.fetchGroup(group, /*computeCycles=*/0);
    EXPECT_EQ(cost.conflictCycles, 1u);
    EXPECT_EQ(cost.gbFillCycles, 2u);

    // Warm group: every fetch hits the GB — no NM traffic, no cost.
    cost = model.fetchGroup(group, 0);
    EXPECT_EQ(cost.conflictCycles, 0u);
    EXPECT_EQ(cost.gbFillCycles, 0u);

    mem::Counters c = model.totals();
    EXPECT_EQ(c.nmAccesses, 2u);
    EXPECT_EQ(c.nmConflictCycles, 1u);
    EXPECT_EQ(c.gbHits, 2u);
    EXPECT_EQ(c.gbMisses, 2u);

    // 33 bytes over a 16 B/cycle channel occupy ceil(33/16) cycles.
    EXPECT_EQ(model.dramTransfer(33), 3u);

    // drainLayer returns the epoch's delta and invalidates the GB.
    c = model.drainLayer();
    EXPECT_EQ(c.nmAccesses, 2u);
    EXPECT_EQ(c.dramBytes, 33u);
    EXPECT_EQ(c.dramCycles, 3u);
    c = model.drainLayer();
    EXPECT_EQ(c.nmAccesses, 0u); // nothing since the last drain
    cost = model.fetchGroup(group, 8);
    EXPECT_EQ(model.totals().gbMisses, 4u); // cold after invalidate
    EXPECT_EQ(cost.gbFillCycles, 0u);       // hidden behind compute
}

TEST(MemoryKind, NamesRoundTrip)
{
    EXPECT_STREQ(mem::kindName(mem::Kind::Ideal), "ideal");
    EXPECT_STREQ(mem::kindName(mem::Kind::Banked), "banked");
    EXPECT_EQ(mem::parseKind("banked"), mem::Kind::Banked);
    EXPECT_EQ(mem::parseKind("ideal"), mem::Kind::Ideal);
    EXPECT_FALSE(mem::parseKind("bogus").has_value());
}

TEST(Interleave, EqualsModuloForAnyDivisor)
{
    sim::Rng rng(7);
    for (const std::uint64_t n : {1u, 2u, 3u, 5u, 7u, 16u, 4096u, 4097u}) {
        const mem::Interleave mod(n);
        for (int i = 0; i < 200; ++i) {
            const std::uint64_t a = i < 100 ? static_cast<std::uint64_t>(i)
                                            : rng.next();
            EXPECT_EQ(mod(a), a % n) << n << " " << a;
        }
        EXPECT_EQ(mod(~std::uint64_t{0}), ~std::uint64_t{0} % n) << n;
    }
}

} // namespace
