#include "driver/trace_pipeline.h"

#include <algorithm>

#include "sim/logging.h"
#include "sim/stats_export.h"

namespace cnv::driver {

std::string
layerStatKey(int index, const std::string &name)
{
    std::string out = name;
    std::replace(out.begin(), out.end(), '.', '_');
    return sim::strfmt("L{}_{}", index, out);
}

void
appendNetworkTrace(sim::TraceSink &sink,
                   const dadiannao::NetworkResult &result,
                   std::uint32_t pid, const std::string &processName)
{
    constexpr std::uint32_t kLayersTid = 0;
    constexpr std::uint32_t kStallTidBase = 1;
    constexpr std::uint32_t kEncoderTid =
        kStallTidBase +
        static_cast<std::uint32_t>(dadiannao::kStallReasonCount);
    constexpr std::uint32_t kDramTid = kEncoderTid + 1;
    auto stallTid = [](dadiannao::StallReason r) {
        return kStallTidBase + static_cast<std::uint32_t>(r);
    };

    sink.setProcessName(pid, processName);
    sink.setThreadName(pid, kLayersTid, "layers");
    for (const dadiannao::StallReasonInfo &info : dadiannao::kStallReasons)
        sink.setThreadName(pid, stallTid(info.reason), info.name);
    sink.setThreadName(pid, kEncoderTid, "encoder");
    if (result.memModelled)
        sink.setThreadName(pid, kDramTid, "dram");

    // Layer and stall spans first: they carry the quantitative
    // payload (their laneCycles sum to the run's idle lane-cycles),
    // so a capped sink must drop the cosmetic counter samples before
    // these.
    int index = 0;
    for (const dadiannao::LayerResult &layer : result.layers) {
        const std::string key = layerStatKey(index++, layer.name);
        if (layer.cycles == 0)
            continue;
        sink.complete(
            pid, kLayersTid, layer.name, "layer", layer.startCycle,
            layer.cycles,
            {sim::TraceArg("laneBusyCycles", layer.micro.laneBusyCycles),
             sim::TraceArg("laneIdleCycles",
                           layer.micro.laneIdleCycles)});
        for (const dadiannao::StallReasonInfo &info :
             dadiannao::kStallReasons) {
            const std::uint64_t cycles = layer.micro.stalls[info.reason];
            if (cycles == 0)
                continue;
            sink.complete(pid, stallTid(info.reason), info.name, "stall",
                          layer.startCycle, layer.cycles,
                          {sim::TraceArg("layer", key),
                           sim::TraceArg("laneCycles", cycles)});
        }
        if (layer.micro.encoderBusyCycles > 0) {
            // The encoder overlaps the next layer in hardware, so
            // its busy count may exceed the layer's own cycles; the
            // span is clamped for display and the real count rides
            // in the args.
            sink.complete(
                pid, kEncoderTid, "encode", "encoder", layer.startCycle,
                std::min(layer.micro.encoderBusyCycles, layer.cycles),
                {sim::TraceArg("busyCycles",
                               layer.micro.encoderBusyCycles),
                 sim::TraceArg("bricks", layer.micro.encoderBricks)});
        }
        if (result.memModelled && layer.mem.dramCycles > 0) {
            // DRAM bursts overlap compute (synapse prefetch), so the
            // channel-busy count may exceed the layer's cycles; clamp
            // for display and carry the real counters in the args.
            sink.complete(
                pid, kDramTid, "dram-burst", "dram", layer.startCycle,
                std::min(layer.mem.dramCycles, layer.cycles),
                {sim::TraceArg("bytes", layer.mem.dramBytes),
                 sim::TraceArg("busyCycles", layer.mem.dramCycles)});
        }
    }

    for (const dadiannao::LayerResult &layer : result.layers) {
        if (layer.cycles == 0)
            continue;
        sink.counter(pid, 0, "laneUtilisation", layer.startCycle,
                     layer.micro.laneUtilisation());
    }
}

void
writeStallCsv(std::ostream &os, const dadiannao::NetworkResult &result,
              const std::string &scope, bool header)
{
    if (header) {
        if (!scope.empty())
            os << "scope,";
        os << "layer,reason,idleLaneCycles\n";
    }
    int index = 0;
    for (const dadiannao::LayerResult &layer : result.layers) {
        const std::string key = layerStatKey(index++, layer.name);
        for (const dadiannao::StallReasonInfo &info :
             dadiannao::kStallReasons) {
            const std::uint64_t cycles = layer.micro.stalls[info.reason];
            if (cycles == 0)
                continue;
            if (!scope.empty())
                os << sim::csvQuote(scope) << ',';
            os << sim::csvQuote(key) << ',' << info.name << ',' << cycles
               << '\n';
        }
    }
}

} // namespace cnv::driver
