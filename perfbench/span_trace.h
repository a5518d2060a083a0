/**
 * @file
 * In-memory span recorder for the traced benchmark run. Spans are
 * recorded from the benchmark's own code around calls into the
 * simulator's modules; the simulator itself is not instrumented.
 *
 * A span has a name, a start and end on the host's steady clock, the
 * span that caused it and the iteration it belongs to. A span opened
 * on a thread with no open span of its own (a pool task) takes as
 * parent the innermost open span that the main thread marked as
 * launching parallel work. Spans the main thread opens while it runs
 * pool tasks itself are not such launchers, so a task's parent does
 * not depend on which thread ran the task next to it.
 */

#ifndef PERFBENCH_SPAN_TRACE_H
#define PERFBENCH_SPAN_TRACE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Host steady-clock nanoseconds since the first call. */
std::uint64_t nowNanos();

/** One recorded span; `parent` is -1 for a root. */
struct Span
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    int parent = -1;
    int iteration = -1;
    int thread = 0;
};

/** Thread-safe, append-only span store. */
class SpanRecorder
{
  public:
    /** Open a span now; returns its id. `launches` marks a main-thread
     *  span as the parent of spans that pool tasks open inside it. */
    int open(std::string name, bool launches);
    /** Close a span opened by this thread (innermost first). */
    void close(int id, bool launches);

    /** Iteration id stamped on spans opened from now on. */
    void setIteration(int iteration);

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /**
     * Self time per span: its duration minus the part of its interval
     * that the union of its children's intervals covers. Children may
     * run on other threads and overlap each other.
     */
    static std::vector<double> selfSeconds(const std::vector<Span> &spans);

    /** Write the spans as a Chrome trace-event JSON document. */
    void writeChromeTrace(const std::string &path,
                          const std::string &label) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    int iteration_ = -1;
    /** Open launcher spans of the main thread, innermost last. */
    std::vector<int> launchers_;
};

/** The recorder of the traced run, or null when tracing is off. */
SpanRecorder *recorder();
/** Install (or, with null, remove) the process-wide recorder. */
void setRecorder(SpanRecorder *r);
/** Mark the calling thread as the benchmark's main thread. */
void markMainThread();

/** RAII span; records nothing while no recorder is installed. */
class ScopedSpan
{
  public:
    /** @param launches The span launches parallel work from the main
     *         thread; spans of the tasks it runs become its children. */
    explicit ScopedSpan(std::string name, bool launches = false);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *recorder_;
    bool launches_;
    int id_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_TRACE_H
