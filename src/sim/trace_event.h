/**
 * @file
 * Cycle-level event tracing in Chrome trace-event format.
 *
 * A TraceSink collects timestamped events — duration spans and
 * counter samples — and serializes them as the Chrome trace-event
 * JSON object format, so a trace loads directly in chrome://tracing
 * or Perfetto. The driver reconstructs a simulated run's timeline
 * into one (driver/trace_pipeline.h), where one cycle maps to one
 * microsecond of trace time; perfbench/span_trace.cc reuses the
 * sink for host-time spans.
 *
 * The sink is bounded: events beyond `maxEvents` are dropped (and
 * counted — the drop count is exported in the trace metadata and
 * warned about, never silent). Process/thread naming metadata is
 * stored out of band and survives the cap, so a truncated trace
 * still labels every track (architecture -> layers, stall reasons,
 * encoder, dram).
 *
 * The emitted schema is documented field-for-field in
 * docs/observability.md; tests/sim/test_trace_event.cc pins it.
 */

#ifndef CNV_SIM_TRACE_EVENT_H
#define CNV_SIM_TRACE_EVENT_H

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace cnv::sim {

/** Simulation time in cycles. */
using Cycle = std::uint64_t;

class JsonWriter;

/** One named argument attached to a trace event (number or string). */
struct TraceArg
{
    TraceArg(std::string n, double v)
        : name(std::move(n)), number(v)
    {}
    TraceArg(std::string n, std::uint64_t v)
        : name(std::move(n)), number(static_cast<double>(v))
    {}
    TraceArg(std::string n, std::string v)
        : name(std::move(n)), isString(true), text(std::move(v))
    {}
    TraceArg(std::string n, const char *v)
        : name(std::move(n)), isString(true), text(v)
    {}

    std::string name;
    bool isString = false;
    double number = 0.0;
    std::string text;
};

/** One Chrome trace-event record ("traceEvents" array element). */
struct TraceEvent
{
    /** Chrome phase code: 'X' complete, 'C' counter. */
    char phase = 'X';
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    /** Start time in cycles (trace microseconds). */
    Cycle ts = 0;
    /** Duration in cycles ('X' events only). */
    Cycle dur = 0;
    std::string name;
    /** Comma-free category tag ("layer", "stall", "encoder", ...). */
    std::string cat;
    std::vector<TraceArg> args;
};

/**
 * Bounded collector of trace events plus track-naming metadata.
 *
 * Producers record through the typed helpers (complete(),
 * counter()); the caller serializes once at the end via
 * writeJson(). Recording past the event cap drops the event and
 * increments droppedEvents() — a warning is logged on the first
 * drop, and the count lands in the JSON metadata.
 */
class TraceSink
{
  public:
    /** Default event cap (~1M events, roughly 150 MB of JSON). */
    static constexpr std::size_t kDefaultMaxEvents = 1u << 20;

    explicit TraceSink(std::size_t maxEvents = kDefaultMaxEvents);

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** Name the process track (e.g. "cnv (nin)"). */
    void setProcessName(std::uint32_t pid, std::string name);

    /** Name a thread track within a process (e.g. "layers"). */
    void setThreadName(std::uint32_t pid, std::uint32_t tid,
                       std::string name);

    /** Record a complete ('X') span of `dur` cycles starting at `ts`. */
    void complete(std::uint32_t pid, std::uint32_t tid, std::string name,
                  std::string cat, Cycle ts, Cycle dur,
                  std::vector<TraceArg> args = {});

    /** Record a single-series counter ('C') sample. */
    void counter(std::uint32_t pid, std::uint32_t tid, std::string name,
                 Cycle ts, double value);

    /** Events admitted so far (metadata excluded), in record order. */
    const std::vector<TraceEvent> &events() const { return events_; }

    /** Events rejected because the cap was reached. */
    std::size_t droppedEvents() const { return dropped_; }

    /** The configured event cap. */
    std::size_t maxEvents() const { return maxEvents_; }

    /**
     * Serialize the whole trace as one JSON document:
     *
     *   { "displayTimeUnit": "ms",
     *     "metadata": { "clockDomain": "cycles", "maxEvents": N,
     *                   "droppedEvents": D, ...extra... },
     *     "traceEvents": [ <'M' naming records>, <events> ] }
     *
     * @param extraMetadata Additional metadata members (e.g. the run
     *        manifest fields), emitted verbatim into "metadata".
     */
    void writeJson(std::ostream &os,
                   const std::vector<TraceArg> &extraMetadata = {}) const;

  private:
    bool admit();

    std::size_t maxEvents_;
    std::vector<TraceEvent> events_;
    std::size_t dropped_ = 0;
    std::vector<std::pair<std::uint32_t, std::string>> processNames_;
    /** (pid, tid) -> name, in declaration order. */
    std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>,
                          std::string>>
        threadNames_;
};

} // namespace cnv::sim

#endif // CNV_SIM_TRACE_EVENT_H
