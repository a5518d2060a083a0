/**
 * @file
 * Machine-readable serialization of the statistics hierarchy.
 *
 * Two formats are supported, both dependency-free:
 *
 *  - JSON via a small streaming JsonWriter (objects, arrays,
 *    strings with full escaping, round-trippable numbers). The
 *    writer is public so report assemblers (driver/stats_report,
 *    bench artifacts) can compose manifests and several stat trees
 *    into one document.
 *  - CSV with one row per statistic, dot-joined paths, and RFC
 *    4180 quoting.
 *
 * The emitted schema is documented field-for-field in
 * docs/observability.md; tests/sim/test_stats_export.cc pins it.
 */

#ifndef CNV_SIM_STATS_EXPORT_H
#define CNV_SIM_STATS_EXPORT_H

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.h"

namespace cnv::sim {

/**
 * Minimal streaming JSON writer with pretty-printed output.
 *
 * Usage mirrors the document structure: beginObject()/endObject(),
 * key() before each member, value() for leaves. The writer tracks
 * nesting and emits commas/indentation; misuse (a value without a
 * pending key inside an object, unbalanced end calls) panics.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os, int indentWidth = 2)
        : os_(os), indentWidth_(indentWidth)
    {}

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Member name inside an object; must precede its value. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    /** Doubles use the shortest representation that round-trips;
     *  NaN and infinities (not representable in JSON) become null. */
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(bool v);

    /** True once every opened container has been closed. */
    bool complete() const { return stack_.empty() && emittedRoot_; }

    /** JSON string-escape `s` (without the surrounding quotes). */
    static std::string escape(std::string_view s);

  private:
    void beforeValue();
    void indent();

    struct Level
    {
        bool isObject = false;
        int members = 0;
        bool keyPending = false;
    };

    std::ostream &os_;
    int indentWidth_;
    std::vector<Level> stack_;
    bool emittedRoot_ = false;
};

/**
 * Serialize a stat tree into `w` as one JSON object:
 *
 *   { "name": "<group>",
 *     "stats": { "<stat>": { "kind": "counter|scalar|formula",
 *                            "value": <number>,
 *                            "desc": "<description>" } },
 *     "groups": { "<child>": { ... recursively ... } } }
 *
 * Counters emit integer values. The writer must be positioned where
 * a value is legal (the document root, an array slot, or after
 * key()).
 */
void exportJson(const StatGroup &group, JsonWriter &w);

/** Serialize a stat tree as a standalone JSON document. */
void exportJson(const StatGroup &group, std::ostream &os);

/**
 * Serialize a stat tree as CSV: `path,kind,value,description` with
 * dot-joined paths rooted at the group's name. Fields containing
 * commas, quotes, or newlines are RFC 4180 quoted.
 *
 * @param prefix Optional path prefix prepended to every row
 *        (used to disambiguate several trees in one file).
 * @param header Emit the `path,kind,value,description` header row.
 */
void exportCsv(const StatGroup &group, std::ostream &os,
               const std::string &prefix = "", bool header = true);

/** CSV-quote one field (adds quotes only when required). */
std::string csvQuote(std::string_view field);

} // namespace cnv::sim

#endif // CNV_SIM_STATS_EXPORT_H
