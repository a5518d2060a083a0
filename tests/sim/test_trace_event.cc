/**
 * @file
 * Pins the trace-event sink's contract: recording order, the
 * bounded-capacity drop behaviour, and the exact Chrome trace-event
 * JSON schema documented in docs/observability.md (parsed back with
 * the shared in-test parser).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/logging.h"
#include "sim/trace_event.h"
#include "support/json_parser.h"

namespace {

using namespace cnv;
using sim::TraceArg;
using sim::TraceSink;
using testsupport::Json;
using testsupport::Parser;

TEST(TraceSink, RecordsEventsInOrderWithTypedFields)
{
    TraceSink sink;
    sink.complete(1, 2, "busy", "lane", 10, 5,
                  {TraceArg("laneCycles", std::uint64_t{5})});
    sink.counter(1, 0, "bbOccupancy", 12, 3.0);

    ASSERT_EQ(sink.events().size(), 2u);
    const auto &span = sink.events()[0];
    EXPECT_EQ(span.phase, 'X');
    EXPECT_EQ(span.pid, 1u);
    EXPECT_EQ(span.tid, 2u);
    EXPECT_EQ(span.ts, 10u);
    EXPECT_EQ(span.dur, 5u);
    EXPECT_EQ(span.name, "busy");
    EXPECT_EQ(span.cat, "lane");
    ASSERT_EQ(span.args.size(), 1u);
    EXPECT_EQ(span.args[0].name, "laneCycles");
    EXPECT_EQ(span.args[0].number, 5.0);

    EXPECT_EQ(sink.events()[1].phase, 'C');
    EXPECT_EQ(sink.droppedEvents(), 0u);
}

TEST(TraceSink, CapDropsExcessEventsAndCountsThem)
{
    TraceSink sink(2);
    EXPECT_EQ(sink.maxEvents(), 2u);
    sink.complete(1, 1, "a", "lane", 0, 1);
    sink.complete(1, 1, "b", "lane", 1, 1);

    // The first drop warns; silence the log for the test.
    sim::setVerbosity(sim::Verbosity::Silent);
    sink.complete(1, 1, "c", "lane", 2, 1);
    sink.counter(1, 0, "bbOccupancy", 3, 1.0);
    sim::setVerbosity(sim::Verbosity::Info);

    ASSERT_EQ(sink.events().size(), 2u);
    EXPECT_EQ(sink.events().back().name, "b");
    EXPECT_EQ(sink.droppedEvents(), 2u);

    // The drop count lands in the serialized metadata.
    std::ostringstream os;
    sink.writeJson(os);
    Json doc = Parser(os.str()).parse();
    EXPECT_EQ(doc.at("metadata").at("droppedEvents").number, 2.0);
    EXPECT_EQ(doc.at("metadata").at("maxEvents").number, 2.0);
}

TEST(TraceSink, TrackNamingSurvivesTheCap)
{
    TraceSink sink(1);
    sink.setProcessName(7, "cnv unit");
    sink.setThreadName(7, 3, "lane3");
    sink.complete(7, 3, "busy", "lane", 0, 4);
    sim::setVerbosity(sim::Verbosity::Silent);
    sink.complete(7, 3, "busy", "lane", 4, 4);
    sim::setVerbosity(sim::Verbosity::Info);

    std::ostringstream os;
    sink.writeJson(os);
    Json doc = Parser(os.str()).parse();
    const Json &events = doc.at("traceEvents");
    // Naming 'M' records precede the (single admitted) event.
    ASSERT_EQ(events.array.size(), 3u);
    EXPECT_EQ(events.array[0].at("ph").text, "M");
    EXPECT_EQ(events.array[0].at("name").text, "process_name");
    EXPECT_EQ(events.array[0].at("args").at("name").text, "cnv unit");
    EXPECT_EQ(events.array[1].at("name").text, "thread_name");
    EXPECT_EQ(events.array[1].at("tid").number, 3.0);
    EXPECT_EQ(events.array[1].at("args").at("name").text, "lane3");
    EXPECT_EQ(events.array[2].at("ph").text, "X");
}

TEST(TraceSink, WriteJsonEmitsDocumentedSchema)
{
    TraceSink sink;
    sink.setProcessName(1, "proc");
    sink.complete(1, 2, "busy", "lane", 10, 5,
                  {TraceArg("layer", "L0_c1"),
                   TraceArg("laneCycles", std::uint64_t{5})});
    sink.counter(1, 0, "bbOccupancy", 12, 3.5);

    std::ostringstream os;
    sink.writeJson(os, {TraceArg("network", "tiny2"),
                        TraceArg("seed", std::uint64_t{7})});
    Json doc = Parser(os.str()).parse();

    EXPECT_EQ(doc.at("displayTimeUnit").text, "ms");
    const Json &meta = doc.at("metadata");
    EXPECT_EQ(meta.at("clockDomain").text, "cycles");
    EXPECT_EQ(meta.at("droppedEvents").number, 0.0);
    EXPECT_EQ(meta.at("network").text, "tiny2");
    EXPECT_EQ(meta.at("seed").number, 7.0);

    const Json &events = doc.at("traceEvents");
    ASSERT_EQ(events.array.size(), 3u); // 1 'M' + 2 recorded

    const Json &span = events.array[1];
    EXPECT_EQ(span.at("ph").text, "X");
    EXPECT_EQ(span.at("pid").number, 1.0);
    EXPECT_EQ(span.at("tid").number, 2.0);
    EXPECT_EQ(span.at("ts").number, 10.0);
    EXPECT_EQ(span.at("dur").number, 5.0);
    EXPECT_EQ(span.at("name").text, "busy");
    EXPECT_EQ(span.at("cat").text, "lane");
    EXPECT_EQ(span.at("args").at("layer").text, "L0_c1");
    EXPECT_EQ(span.at("args").at("laneCycles").number, 5.0);

    const Json &counter = events.array[2];
    EXPECT_EQ(counter.at("ph").text, "C");
    EXPECT_FALSE(counter.has("dur"));
    EXPECT_EQ(counter.at("args").at("value").number, 3.5);
}

} // namespace
