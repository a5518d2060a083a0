#include "span_trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <utility>

#include "sim/error.h"
#include "sim/trace_event.h"

namespace perfbench {

namespace {

std::atomic<SpanRecorder *> g_recorder{nullptr};
std::atomic<int> g_nextThread{0};
thread_local bool t_isMain = false;
thread_local int t_thread = -1;
thread_local std::vector<int> t_open;

int
threadIndex()
{
    if (t_thread < 0)
        t_thread = g_nextThread.fetch_add(1);
    return t_thread;
}

} // namespace

std::uint64_t
nowNanos()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

SpanRecorder *
recorder()
{
    return g_recorder.load(std::memory_order_acquire);
}

void
setRecorder(SpanRecorder *r)
{
    g_recorder.store(r, std::memory_order_release);
}

void
markMainThread()
{
    t_isMain = true;
    threadIndex();
}

int
SpanRecorder::open(std::string name, bool launches)
{
    Span s;
    s.name = std::move(name);
    s.thread = threadIndex();
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!t_open.empty())
        s.parent = t_open.back();
    else if (!launchers_.empty())
        s.parent = launchers_.back();
    s.iteration = iteration_;
    const int id = static_cast<int>(spans_.size());
    s.startNs = nowNanos();
    spans_.push_back(std::move(s));
    t_open.push_back(id);
    if (launches && t_isMain)
        launchers_.push_back(id);
    return id;
}

void
SpanRecorder::close(int id, bool launches)
{
    const std::uint64_t end = nowNanos();
    const std::lock_guard<std::mutex> lock(mutex_);
    // ScopedSpan closes spans innermost first on every thread.
    t_open.pop_back();
    if (launches && t_isMain)
        launchers_.pop_back();
    spans_[static_cast<std::size_t>(id)].endNs = end;
}

void
SpanRecorder::setIteration(int iteration)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    iteration_ = iteration;
}

std::vector<Span>
SpanRecorder::spans() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<double>
SpanRecorder::selfSeconds(const std::vector<Span> &spans)
{
    std::vector<std::vector<int>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            children[static_cast<std::size_t>(spans[i].parent)].push_back(
                static_cast<int>(i));

    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
        for (int c : children[i]) {
            const Span &s = spans[static_cast<std::size_t>(c)];
            const std::uint64_t b = std::max(s.startNs, p.startNs);
            const std::uint64_t e = std::min(s.endNs, p.endNs);
            if (e > b)
                cover.emplace_back(b, e);
        }
        std::sort(cover.begin(), cover.end());
        std::uint64_t covered = 0, reach = p.startNs;
        for (const auto &[b, e] : cover) {
            const std::uint64_t from = std::max(b, reach);
            if (e > from)
                covered += e - from;
            reach = std::max(reach, e);
        }
        self[i] = static_cast<double>(p.endNs - p.startNs - covered) * 1e-9;
    }
    return self;
}

void
SpanRecorder::writeChromeTrace(const std::string &path,
                               const std::string &label) const
{
    const std::vector<Span> all = spans();
    cnv::sim::TraceSink sink;
    sink.setProcessName(1, label);
    int threads = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        threads = std::max(threads, s.thread + 1);
        const std::string module = s.name.substr(0, s.name.find('.'));
        // The sink's time unit is one microsecond of host time here.
        sink.complete(1, static_cast<std::uint32_t>(s.thread), s.name,
                      module, s.startNs / 1000,
                      (s.endNs - s.startNs) / 1000,
                      {{"id", static_cast<std::uint64_t>(i)},
                       {"parent", static_cast<double>(s.parent)},
                       {"iteration", static_cast<double>(s.iteration)}});
    }
    for (int t = 0; t < threads; ++t)
        sink.setThreadName(1, static_cast<std::uint32_t>(t),
                           t == 0 ? "main" : "thread" + std::to_string(t));
    std::ofstream out(path);
    sink.writeJson(out, {{"clock", "host microseconds"}});
    if (!out)
        throw cnv::sim::FatalError("cannot write trace to " + path);
}

ScopedSpan::ScopedSpan(std::string name, bool launches)
    : recorder_(recorder()), launches_(launches)
{
    if (recorder_ != nullptr)
        id_ = recorder_->open(std::move(name), launches_);
}

ScopedSpan::~ScopedSpan()
{
    if (recorder_ != nullptr)
        recorder_->close(id_, launches_);
}

} // namespace perfbench
