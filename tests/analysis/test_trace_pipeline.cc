/**
 * @file
 * Network-level trace/stall pipeline: the stall vocabulary is
 * stable, each run's StallBreakdown totals equal its idle
 * lane-cycles on both architectures (the attribution invariant the
 * whole stalls feature rests on), the appendNetworkTrace stall spans
 * sum back to the same numbers on well-formed, non-overlapping
 * tracks, writeStallCsv emits the pinned sparse CSV, and the stall
 * breakdown surfaces in the cnv-report-v1 document.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "driver/stats_report.h"
#include "driver/trace_pipeline.h"
#include "mem/memory_model.h"
#include "nn/network.h"
#include "support/json_parser.h"
#include "timing/network_model.h"

namespace {

using namespace cnv;
using dadiannao::StallReason;
using testsupport::Json;
using testsupport::Parser;

/** The report test's two-conv-layer network, small enough to run. */
nn::Network
makeNetwork()
{
    nn::Network net("tiny2", 11);
    int x = net.addInput({8, 8, 16});
    nn::ConvParams c;
    c.filters = 16;
    c.fx = c.fy = 3;
    c.stride = 1;
    c.pad = 1;
    c.inputZeroFraction = 0.5;
    x = net.addConv("c1", x, c);
    net.addConv("c2", x, c);
    net.deriveOutputTargets();
    return net;
}

dadiannao::NetworkResult
runArch(timing::Dataflow df, mem::Kind memKind = mem::Kind::Ideal)
{
    const nn::Network net = makeNetwork();
    const dadiannao::NodeConfig cfg;
    timing::RunOptions opts;
    opts.imageSeed = 3;
    opts.memKind = memKind;
    return timing::simulateNetwork(cfg, net, df, opts);
}

/** A hand-built run: one layer per entry, with the given stalls. */
dadiannao::NetworkResult
resultWithStalls(
    const std::vector<std::pair<std::string, dadiannao::StallBreakdown>>
        &layers)
{
    dadiannao::NetworkResult r;
    for (const auto &[name, stalls] : layers) {
        dadiannao::LayerResult l;
        l.name = name;
        l.micro.stalls = stalls;
        r.layers.push_back(l);
    }
    return r;
}

dadiannao::StallBreakdown
oneStall(StallReason r, std::uint64_t cycles)
{
    dadiannao::StallBreakdown s;
    s[r] = cycles;
    return s;
}

TEST(TracePipeline, LayerStatKeysAreStableAndPathSafe)
{
    EXPECT_EQ(driver::layerStatKey(0, "c1"), "L0_c1");
    EXPECT_EQ(driver::layerStatKey(3, "inception.3a"), "L3_inception_3a");
}

TEST(TracePipeline, StallReasonNamesAreStable)
{
    // The names are the report stat keys, stall-CSV cells and trace
    // span names: renaming one changes every downstream document.
    const char *const names[] = {
        "brick_buffer_empty", "window_barrier", "synapse_wait",
        "slice_drained",      "nm_bank_conflict", "gb_miss",
        "dram_wait"};
    static_assert(std::size(names) == dadiannao::kStallReasonCount);
    for (std::size_t i = 0; i < dadiannao::kStallReasonCount; ++i) {
        const dadiannao::StallReasonInfo &info = dadiannao::kStallReasons[i];
        EXPECT_EQ(static_cast<std::size_t>(info.reason), i);
        EXPECT_STREQ(info.name, names[i]);
        EXPECT_NE(std::string(info.desc), "") << info.name;
        // Only the three banked-hierarchy reasons are memory stalls.
        EXPECT_EQ(dadiannao::isMemoryStall(info.reason), i >= 4)
            << info.name;
    }
}

TEST(TracePipeline, StallBreakdownIsIndexedByReason)
{
    dadiannao::StallBreakdown a;
    a[StallReason::WindowBarrier] = 10;
    a[StallReason::SynapseWait] += 5;
    dadiannao::StallBreakdown b = oneStall(StallReason::WindowBarrier, 3);
    b[StallReason::DramWait] = 2;
    a += b;
    EXPECT_EQ(a[StallReason::WindowBarrier], 13u);
    EXPECT_EQ(a[StallReason::SynapseWait], 5u);
    EXPECT_EQ(a[StallReason::DramWait], 2u);
    EXPECT_EQ(a[StallReason::BrickBufferEmpty], 0u);
    EXPECT_EQ(a.total(), 20u);
}

TEST(TracePipeline, StallTotalsMatchIdleCyclesOnBothArchs)
{
    for (bool encoded : {true, false}) {
        const auto result = runArch({.encoded = encoded});
        const auto micro = result.totalMicro();
        EXPECT_EQ(micro.stalls.total(), micro.laneIdleCycles)
            << "encoded=" << encoded;

        // The invariant holds layer by layer, not just in aggregate.
        int index = 0;
        for (const auto &layer : result.layers) {
            EXPECT_EQ(layer.micro.stalls.total(),
                      layer.micro.laneIdleCycles)
                << "encoded=" << encoded << " "
                << driver::layerStatKey(index, layer.name);
            ++index;
        }
    }
}

TEST(TracePipeline, NetworkTraceStallSpansSumToIdleCycles)
{
    const auto cnv = runArch({.encoded = true});
    const auto base = runArch({});

    sim::TraceSink sink;
    driver::appendNetworkTrace(sink, cnv, 1, "cnv (tiny2)");
    driver::appendNetworkTrace(sink, base, 2, "dadiannao (tiny2)");
    EXPECT_EQ(sink.droppedEvents(), 0u);

    // The document is valid trace JSON in the cycle clock domain,
    // with one process per arch, layer spans on tid 0 and stall
    // spans keyed by layer. Every span is non-empty, and the spans
    // of each (pid, tid) track are time-ordered without overlap.
    std::ostringstream os;
    sink.writeJson(os);
    Json doc = Parser(os.str()).parse();
    EXPECT_EQ(doc.at("metadata").at("clockDomain").text, "cycles");
    std::map<std::pair<double, double>, double> trackEnd;
    std::map<double, double> stallLaneCycles; // per pid
    bool sawLayerSpan = false, sawKeyedStall = false;
    for (const Json &e : doc.at("traceEvents").array) {
        if (e.at("ph").text != "X")
            continue;
        const std::pair<double, double> track{e.at("pid").number,
                                              e.at("tid").number};
        const double ts = e.at("ts").number;
        const double dur = e.at("dur").number;
        EXPECT_GT(dur, 0.0);
        const auto [end, fresh] = trackEnd.emplace(track, 0.0);
        if (!fresh) {
            EXPECT_GE(ts, end->second)
                << "overlap on pid " << track.first << " tid "
                << track.second;
        }
        end->second = ts + dur;
        if (e.at("cat").text == "layer" && e.at("tid").number == 0.0)
            sawLayerSpan = true;
        if (e.at("cat").text == "stall") {
            sawKeyedStall |=
                e.at("args").at("layer").text.rfind("L", 0) == 0;
            // One track per reason, tid 1 + the reason's index.
            const auto reason =
                static_cast<std::size_t>(e.at("tid").number) - 1;
            ASSERT_LT(reason, dadiannao::kStallReasonCount);
            EXPECT_EQ(e.at("name").text,
                      dadiannao::kStallReasons[reason].name);
            stallLaneCycles[track.first] +=
                e.at("args").at("laneCycles").number;
        }
    }
    EXPECT_TRUE(sawLayerSpan);
    EXPECT_TRUE(sawKeyedStall);

    // The spans' laneCycles fold back to every idle lane-cycle the
    // run reported, per process.
    EXPECT_EQ(stallLaneCycles[1],
              static_cast<double>(cnv.totalMicro().laneIdleCycles));
    EXPECT_EQ(stallLaneCycles[2],
              static_cast<double>(base.totalMicro().laneIdleCycles));
    // A CNV run on a half-zero input must actually report stalls
    // (the invariant would also hold trivially at zero).
    EXPECT_GT(stallLaneCycles[1], 0.0);
}

TEST(TracePipeline, StallCsvMatchesPinnedBytes)
{
    // The stall CSV is a documented file format: header, sparse rows,
    // layer keys and reason names are pinned byte for byte, for the
    // ideal and the banked memory model.
    const char *const golden =
        "scope,layer,reason,idleLaneCycles\n"
        "dadiannao,L0_c1:synapse-load,synapse_wait,144\n"
        "cnv,L0_c1:synapse-load,synapse_wait,144\n"
        "cnv,L2_c2,window_barrier,2039\n";
    for (mem::Kind kind : {mem::Kind::Ideal, mem::Kind::Banked}) {
        std::ostringstream os;
        driver::writeStallCsv(os, runArch({}, kind), "dadiannao");
        driver::writeStallCsv(os, runArch({.encoded = true}, kind), "cnv",
                              /*header=*/false);
        EXPECT_EQ(os.str(), golden) << mem::kindName(kind);
    }
}

TEST(TracePipeline, StallCsvIsSparseWithOptionalScope)
{
    const auto result = resultWithStalls(
        {{"c1", oneStall(StallReason::WindowBarrier, 10)},
         {"pool", {}},
         {"c2", oneStall(StallReason::SynapseWait, 5)}});

    std::ostringstream plain;
    driver::writeStallCsv(plain, result);
    EXPECT_EQ(plain.str(),
              "layer,reason,idleLaneCycles\n"
              "L0_c1,window_barrier,10\n"
              "L2_c2,synapse_wait,5\n");

    // A scope becomes a leading column; the header is optional so
    // several runs can merge into one file.
    std::ostringstream scoped;
    driver::writeStallCsv(scoped, result, "cnv");
    driver::writeStallCsv(scoped, result, "dadiannao", /*header=*/false);
    EXPECT_EQ(scoped.str(),
              "scope,layer,reason,idleLaneCycles\n"
              "cnv,L0_c1,window_barrier,10\n"
              "cnv,L2_c2,synapse_wait,5\n"
              "dadiannao,L0_c1,window_barrier,10\n"
              "dadiannao,L2_c2,synapse_wait,5\n");
}

TEST(TracePipeline, StallCsvQuotesFieldsPerRfc4180)
{
    const auto result = resultWithStalls(
        {{"a,b", oneStall(StallReason::GbMiss, 7)},
         {"say \"hi\"", oneStall(StallReason::DramWait, 1)}});
    std::ostringstream os;
    driver::writeStallCsv(os, result, "x,y", /*header=*/false);
    EXPECT_EQ(os.str(), "\"x,y\",\"L0_a,b\",gb_miss,7\n"
                        "\"x,y\",\"L1_say \"\"hi\"\"\",dram_wait,1\n");
}

TEST(TracePipeline, ReportJsonCarriesPerLayerStallBreakdown)
{
    driver::ExperimentConfig cfg;
    cfg.images = 1;
    cfg.seed = 7;
    const nn::Network net = makeNetwork();
    const driver::RunReport report = driver::buildRunReport(cfg, net);

    std::ostringstream os;
    driver::writeReportJson(report, os);
    Json doc = Parser(os.str()).parse();

    for (const char *arch : {"dadiannao", "cnv"}) {
        const Json &tree = doc.at("architectures").at(arch);
        const Json &layers = tree.at("groups").at("layers").at("groups");
        ASSERT_GE(layers.object.size(), 2u) << arch;
        for (const auto &[name, layer] : layers.object) {
            const Json &micro = layer.at("groups").at("micro");
            const Json &stalls =
                micro.at("groups").at("stalls").at("stats");
            double total = 0.0;
            for (const char *reason :
                 {"brick_buffer_empty", "window_barrier", "synapse_wait",
                  "slice_drained"})
                total += stalls.at(reason).at("value").number;
            EXPECT_EQ(total,
                      micro.at("stats").at("laneIdleCycles").at("value")
                          .number)
                << arch << "." << name;
        }
    }
}

} // namespace
