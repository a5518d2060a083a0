/** @file Tests for the JSON/CSV statistics exporters. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sim/stats.h"
#include "sim/stats_export.h"

namespace {

using namespace cnv::sim;

TEST(JsonWriter, EmitsNestedDocument)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.key("a").value(std::uint64_t{1});
    w.key("b").beginArray();
    w.value(2);
    w.value("x");
    w.endArray();
    w.endObject();
    EXPECT_TRUE(w.complete());
    std::string text = os.str();
    text.erase(std::remove(text.begin(), text.end(), '\n'), text.end());
    EXPECT_EQ(text, R"({"a": 1,"b": [2,"x"]})");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(JsonWriter::escape("plain"), "plain");
    EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(JsonWriter::escape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(JsonWriter::escape("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(JsonWriter::escape("tab\there"), "tab\\there");
    EXPECT_EQ(JsonWriter::escape(std::string("b\x01l")), "b\\u0001l");
}

TEST(JsonWriter, DoublesRoundTripAndStayCompact)
{
    auto render = [](double v) {
        std::ostringstream os;
        JsonWriter w(os);
        w.value(v);
        return os.str();
    };
    EXPECT_EQ(render(0.5), "0.5");
    EXPECT_EQ(render(3.0), "3");
    // A value with no short decimal form must still parse back
    // exactly.
    const double awkward = 0.1 + 0.2;
    EXPECT_EQ(std::stod(render(awkward)), awkward);
    EXPECT_EQ(render(std::nan("")), "null");
    EXPECT_EQ(render(INFINITY), "null");
}

/** A small tree exercising every stat kind. */
StatGroup &
buildTree(StatGroup &root)
{
    root.addCounter("cycles", "total cycles") += 42;
    root.addScalar("watts", "average power") = 1.5;
    root.addFormula("ipc", "fixed formula", [] { return 2.0; });
    StatGroup &child = root.addGroup("unit0");
    child.addCounter("reads", "SB reads") += 7;
    return child;
}

TEST(ExportJson, SerializesNestedGroupsWithKinds)
{
    StatGroup root("top");
    buildTree(root);
    std::ostringstream os;
    exportJson(root, os);
    const std::string text = os.str();

    // Counters are integers, not floats.
    EXPECT_NE(text.find("\"kind\": \"counter\""), std::string::npos);
    EXPECT_NE(text.find("\"value\": 42"), std::string::npos);
    EXPECT_EQ(text.find("\"value\": 42.0"), std::string::npos);
    EXPECT_NE(text.find("\"kind\": \"scalar\""), std::string::npos);
    EXPECT_NE(text.find("\"kind\": \"formula\""), std::string::npos);
    // Nested group appears under "groups".
    EXPECT_NE(text.find("\"unit0\""), std::string::npos);
    EXPECT_NE(text.find("\"name\": \"top\""), std::string::npos);
}

TEST(ExportJson, EscapesNamesAndDescriptions)
{
    StatGroup root("top");
    root.addCounter("odd\"name", "has \"quotes\" and\nnewline");
    std::ostringstream os;
    exportJson(root, os);
    EXPECT_NE(os.str().find("odd\\\"name"), std::string::npos);
    EXPECT_NE(os.str().find("\\nnewline"), std::string::npos);
}

TEST(ExportCsv, OneRowPerStatWithDottedPaths)
{
    StatGroup root("top");
    buildTree(root);
    std::ostringstream os;
    exportCsv(root, os);
    const std::string text = os.str();
    EXPECT_NE(text.find("path,kind,value,description\n"),
              std::string::npos);
    EXPECT_NE(text.find("top.cycles,counter,42,total cycles"),
              std::string::npos);
    EXPECT_NE(text.find("top.unit0.reads,counter,7,SB reads"),
              std::string::npos);
    EXPECT_NE(text.find("top.watts,scalar,1.5,average power"),
              std::string::npos);
    EXPECT_NE(text.find("top.ipc,formula,2,fixed formula"),
              std::string::npos);
}

TEST(ExportCsv, PrefixAndHeaderAreOptional)
{
    StatGroup root("arch");
    root.addCounter("cycles", "c") += 1;
    std::ostringstream os;
    exportCsv(root, os, "run0", /*header=*/false);
    EXPECT_EQ(os.str(), "run0.arch.cycles,counter,1,c\n");
}

TEST(ExportCsv, QuotesFieldsPerRfc4180)
{
    EXPECT_EQ(csvQuote("plain"), "plain");
    EXPECT_EQ(csvQuote("with,comma"), "\"with,comma\"");
    EXPECT_EQ(csvQuote("with \"quote\""), "\"with \"\"quote\"\"\"");
    EXPECT_EQ(csvQuote("line\nbreak"), "\"line\nbreak\"");

    StatGroup root("top");
    root.addCounter("c", "desc, with comma") += 1;
    std::ostringstream os;
    exportCsv(root, os, "", false);
    EXPECT_EQ(os.str(), "top.c,counter,1,\"desc, with comma\"\n");
}

} // namespace
