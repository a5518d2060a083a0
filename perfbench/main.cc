/**
 * @file
 * perfbench_cnv: runs one benchmark workload against the simulator's
 * public entry points and prints the raw measurements as one JSON
 * document on stdout. perfbench/run.py builds and runs this program,
 * checks the simulated outputs and turns the raw numbers into the
 * metrics BENCHMARK.json names; README.md in this directory explains
 * the workloads.
 *
 * Usage:
 *   perfbench_cnv --workload zoo_cold|design_sweep|prune_search
 *                 --seed N --seconds S [--trace-out PATH] [--reference]
 *                 [--work-dir DIR]
 *   perfbench_cnv --check-assumptions
 *
 * --trace-out turns on the traced run: set-up and iterations run with
 * spans recorded around the calls into each module, the spans are
 * written to PATH as Chrome trace-event JSON, and per-layer figures
 * are reported. --reference adds one iteration at one job, whose
 * outputs are the reference for a seed that has no pinned results.
 * --check-assumptions checks what the workloads take for granted about
 * the simulator (the excluded pair still raises; cnv-pruned's default
 * prune config) and exits 0 when both hold.
 */

#include <algorithm>
#include <atomic>
#include <charconv>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "arch/registry.h"
#include "driver/driver.h"
#include "nn/trace.h"
#include "nn/zoo/zoo.h"
#include "pruning/explore.h"
#include "sim/error.h"
#include "sim/metrics.h"
#include "sim/parallel.h"
#include "heap_peak.h"
#include "span_trace.h"
#include "tensor/serialize.h"
#include "timing/network_model.h"
#include "timing/trace_cache.h"

namespace {

using namespace cnv;
using perfbench::ScopedSpan;

/** Pool lanes: the workloads are sized for a 4-core host. */
constexpr int kMaxJobs = 4;
/**
 * Share of an untraced run's measuring time spent setting up again.
 * After each timed iteration the workload sets up until its set-ups
 * have taken this share of the time measured so far; setup_s is the
 * median of all of them. Spread over the run this way, set-up and
 * iterations see the same host speed phases, and a set-up of a
 * fraction of a millisecond is sampled thousands of times.
 */
constexpr double kSetupShare = 0.2;
/** Least timed iterations per run, whatever --seconds says. */
constexpr int kMinIterations = 3;

// ---------------------------------------------------------------------------
// JSON output

std::string
num(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

std::string
quote(const std::string &s)
{
    return '"' + s + '"'; // keys and names here never need escaping
}

/** One simulated operation's outputs, as a JSON object literal. */
using Ops = std::vector<std::pair<std::string, std::string>>;

std::string
opsJson(const Ops &ops)
{
    std::string out = "{";
    for (std::size_t i = 0; i < ops.size(); ++i)
        out += (i ? ", " : "") + quote(ops[i].first) + ": " + ops[i].second;
    return out + "}";
}

// ---------------------------------------------------------------------------
// Trace-mode helpers shared by the workloads

/** Byte and call counters bumped by the traced providers. */
struct Counters
{
    std::atomic<std::uint64_t> synthBytes{0};
    std::atomic<std::uint64_t> readBytes{0};
    /** Lookups the trace-mode prefetch adds on top of the workload's. */
    std::atomic<std::uint64_t> tensorPrefetches{0};
    std::atomic<std::uint64_t> countPrefetches{0};
};
Counters g_counters;

/** nn::synthesizeConvInput inside an `nn.synth` span. */
tensor::NeuronTensor
synthTraced(const nn::Network &net, int convNodeId, std::uint64_t seed)
{
    const ScopedSpan span("nn.synth");
    tensor::NeuronTensor t = nn::synthesizeConvInput(net, convNodeId, seed);
    g_counters.synthBytes += t.size() * sizeof(tensor::Fixed16);
    return t;
}

/** Supplies synthesized traces, so TraceCache misses show as spans. */
class SynthProvider : public timing::TraceProvider
{
  public:
    std::optional<tensor::NeuronTensor>
    convInput(const nn::Network &net, int convNodeId,
              std::uint64_t imageSeed) const override
    {
        return synthTraced(net, convNodeId, imageSeed);
    }
};

/** Forwards to a DirectoryTraceProvider inside `tensor.read` spans. */
class ReadProvider : public timing::TraceProvider
{
  public:
    explicit ReadProvider(const timing::DirectoryTraceProvider &dir)
        : dir_(dir)
    {}

    std::optional<tensor::NeuronTensor>
    convInput(const nn::Network &net, int convNodeId,
              std::uint64_t imageSeed) const override
    {
        const ScopedSpan span("tensor.read");
        auto t = dir_.convInput(net, convNodeId, imageSeed);
        if (t)
            g_counters.readBytes += std::filesystem::file_size(
                dir_.pathFor(net, convNodeId, imageSeed));
        return t;
    }

  private:
    const timing::DirectoryTraceProvider &dir_;
};

/**
 * A fresh TraceCache plus the trace-mode prefetch: before a model
 * simulates a network, its tensors and count maps are looked up
 * layer by layer in the order the model would, so that the misses
 * run inside spans. The first lookup of a key is the one that
 * computes it; later lookups wait for it inside `timing.cache_wait`.
 */
class IterationCache
{
  public:
    timing::TraceCache cache;

    void
    prefetch(const nn::Network &net, std::uint64_t seed,
             const timing::TraceProvider *traces,
             const nn::PruneConfig *prune, int brickSize)
    {
        std::string pruneKey = "-";
        if (prune != nullptr)
            for (std::int32_t t : prune->thresholds)
                pruneKey += std::to_string(t) + ',';
        for (int id : net.convNodeIds()) {
            const std::string key = net.name() + '#' + std::to_string(id);
            once("t#" + key, [&] {
                ++g_counters.tensorPrefetches;
                cache.convInput(net, id, seed, traces);
            });
            once("c#" + key + '#' + pruneKey + '#' + std::to_string(brickSize),
                 [&] {
                     ++g_counters.countPrefetches;
                     const ScopedSpan span("zfnaf.count");
                     cache.countMap(net, id, seed, traces, prune, brickSize);
                 });
        }
    }

  private:
    template <typename Fn>
    void
    once(const std::string &key, Fn &&compute)
    {
        std::shared_ptr<std::mutex> m;
        std::unique_lock<std::mutex> first;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            auto &entry = done_[key];
            if (!entry) {
                entry = std::make_shared<std::mutex>();
                first = std::unique_lock<std::mutex>(*entry);
            }
            m = entry;
        }
        if (first.owns_lock()) {
            compute();
            return;
        }
        const ScopedSpan span("timing.cache_wait");
        const std::lock_guard<std::mutex> wait(*m);
    }

    std::mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<std::mutex>> done_;
};

/**
 * The prune config a registry model looks its count maps up with when
 * the caller passes none: cnv-pruned prunes every conv layer at its
 * default threshold (src/arch/arch_model.cc), the baseline never
 * prunes, and the other models prune only on request. selftest.py
 * checks that cnv-pruned with this config explicit gives the same
 * cycles as without one.
 */
const nn::PruneConfig *
modelPrune(const arch::ArchModel &model, const nn::Network &net,
           const nn::PruneConfig *requested, nn::PruneConfig &defaults)
{
    if (model.id() == "dadiannao")
        return nullptr;
    if (requested != nullptr || model.id() != "cnv-pruned")
        return requested;
    constexpr std::int32_t kCnvPrunedThreshold = 16;
    defaults.thresholds.assign(static_cast<std::size_t>(net.convLayerCount()),
                               kCnvPrunedThreshold);
    return &defaults;
}

/**
 * Forwards every call to a registry model. simulateNetwork runs in an
 * `arch.simulate.<mem>` span, after the trace-mode prefetch.
 */
class TracedArch : public arch::ArchModel
{
  public:
    TracedArch(const arch::ArchModel &inner, IterationCache &cache,
               const timing::TraceProvider *traces)
        : inner_(inner), cache_(cache), traces_(traces)
    {}

    const std::string &id() const override { return inner_.id(); }
    const std::string &
    displayName() const override
    {
        return inner_.displayName();
    }
    dadiannao::NodeConfig
    nodeConfig(const dadiannao::NodeConfig &base) const override
    {
        return inner_.nodeConfig(base);
    }
    void
    validateNode(const dadiannao::NodeConfig &cfg) const override
    {
        inner_.validateNode(cfg);
    }
    mem::Geometry
    memGeometry(const dadiannao::NodeConfig &cfg) const override
    {
        return inner_.memGeometry(cfg);
    }

    dadiannao::NetworkResult
    simulateNetwork(const dadiannao::NodeConfig &base,
                    const nn::Network &net,
                    const timing::RunOptions &opts) const override
    {
        const ScopedSpan span(opts.memKind == mem::Kind::Ideal
                                  ? "arch.simulate.ideal"
                                  : "arch.simulate.banked");
        timing::RunOptions run = opts;
        if (traces_ != nullptr)
            run.traces = traces_;
        nn::PruneConfig defaults;
        cache_.prefetch(net, run.imageSeed, run.traces,
                        modelPrune(inner_, net, run.prune, defaults),
                        inner_.nodeConfig(base).brickSize);
        return inner_.simulateNetwork(base, net, run);
    }

    dadiannao::LayerResult
    convTiming(const dadiannao::NodeConfig &cfg, const nn::Node &node,
               const timing::CountMap &counts) const override
    {
        return inner_.convTiming(cfg, node, counts);
    }
    dadiannao::LayerResult
    fcTiming(const dadiannao::NodeConfig &cfg, const nn::Network &net,
             int nodeId, dadiannao::OverlapTracker &overlap) const override
    {
        return inner_.fcTiming(cfg, net, nodeId, overlap);
    }
    dadiannao::LayerResult
    otherTiming(const dadiannao::NodeConfig &cfg, const nn::Node &node,
                dadiannao::OverlapTracker &overlap) const override
    {
        return inner_.otherTiming(cfg, node, overlap);
    }
    power::AreaBreakdown
    area(const power::PowerParams &p) const override
    {
        return inner_.area(p);
    }
    power::PowerBreakdown
    power(const dadiannao::EnergyCounters &counters, std::uint64_t cycles,
          const power::PowerParams &p) const override
    {
        return inner_.power(counters, cycles, p);
    }
    power::RunMetrics
    metrics(const dadiannao::EnergyCounters &counters, std::uint64_t cycles,
            const power::PowerParams &p) const override
    {
        return inner_.metrics(counters, cycles, p);
    }

  private:
    const arch::ArchModel &inner_;
    IterationCache &cache_;
    const timing::TraceProvider *traces_;
};

/** convTiming on warm count maps for every conv layer, in spans. */
void
probeConvTiming(IterationCache &ic, const nn::Network &net,
                std::uint64_t seed, const timing::TraceProvider *traces,
                const arch::ArchModel &model)
{
    const dadiannao::NodeConfig cfg = model.nodeConfig({});
    nn::PruneConfig defaults;
    const nn::PruneConfig *prune = modelPrune(model, net, nullptr, defaults);
    for (int id : net.convNodeIds()) {
        const auto counts =
            ic.cache.countMap(net, id, seed, traces, prune, cfg.brickSize);
        const ScopedSpan span("timing.conv");
        model.convTiming(cfg, net.node(id), *counts);
    }
}

std::vector<std::unique_ptr<nn::Network>>
buildNetworks(const std::vector<nn::zoo::NetId> &ids, std::uint64_t seed)
{
    std::vector<std::unique_ptr<nn::Network>> nets;
    for (nn::zoo::NetId id : ids)
        nets.push_back(nn::zoo::build(id, seed));
    return nets;
}

// ---------------------------------------------------------------------------
// Workloads

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build the inputs; may run more than once. */
    virtual void setup() = 0;
    /** One iteration; returns each operation's outputs by key. */
    virtual Ops iterate(bool traced) = 0;
    /** Trace mode only: layer probes on the last iteration's state. */
    virtual void probe() {}
    /** Dense conv MACs simulated per iteration. */
    virtual double simMacs() const = 0;
    /** Trace mode only: simulated memory counters of the last
     *  iteration (zero where no run models banked memory). */
    virtual std::vector<std::pair<std::string, double>>
    simulatedCounters() const
    {
        return {{"mem.nm_conflict_cycles", 0.0}, {"mem.gb_miss_ratio", 0.0}};
    }
};

/** Six networks x dadiannao,cnv,cnv2, ideal memory, cold cache. */
class ZooCold : public Workload
{
  public:
    explicit ZooCold(std::uint64_t seed) : seed_(seed) {}

    void
    setup() override
    {
        cache_.reset();
        nets_ = buildNetworks(nn::zoo::allNetworks(), seed_);
    }

    Ops
    iterate(bool traced) override
    {
        driver::ExperimentConfig cfg;
        cfg.images = 1;
        cfg.seed = seed_;
        cache_ = std::make_unique<IterationCache>();
        std::vector<const arch::ArchModel *> models = archs();
        std::vector<std::unique_ptr<TracedArch>> wrapped;
        if (traced)
            for (const arch::ArchModel *&a : models) {
                wrapped.push_back(
                    std::make_unique<TracedArch>(*a, *cache_, &synth_));
                a = wrapped.back().get();
            }
        Ops ops;
        for (const auto &net : nets_) {
            const ScopedSpan span("driver.evaluate." + net->name(), true);
            const driver::NetworkReport report = driver::evaluateNetworkArchs(
                cfg, *net, models, nullptr, &cache_->cache);
            for (const driver::ArchAggregate &a : report.archs)
                ops.emplace_back(net->name() + "/" + a.id() + "/ideal",
                                 "{\"cycles\": " +
                                     std::to_string(a.cycles) + "}");
        }
        return ops;
    }

    void
    probe() override
    {
        for (const auto &net : nets_)
            for (const arch::ArchModel *a : archs())
                probeConvTiming(*cache_, *net, seed_, &synth_, *a);
    }

    double
    simMacs() const override
    {
        double macs = 0;
        for (const auto &net : nets_)
            macs += static_cast<double>(archs().size() * net->totalConvMacs());
        return macs;
    }

  private:
    static std::vector<const arch::ArchModel *>
    archs()
    {
        const auto &reg = arch::builtin();
        return {&reg.get("dadiannao"), &reg.get("cnv"), &reg.get("cnv2")};
    }

    std::uint64_t seed_;
    std::vector<std::unique_ptr<nn::Network>> nets_;
    std::unique_ptr<IterationCache> cache_;
    SynthProvider synth_;
};

/**
 * Every registry architecture x {ideal, banked} x six networks, on
 * traces synthesized once in set-up and read back from .cnvt files.
 */
class DesignSweep : public Workload
{
  public:
    DesignSweep(std::uint64_t seed, std::string dir)
        : seed_(seed), dir_(std::move(dir)), files_(dir_), reader_(files_)
    {}

    ~DesignSweep() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    /**
     * alex's grouped conv2 has a group depth of 48, which a 32-wide
     * brick cannot align to: the model raises FatalError ("group
     * depth must be brick aligned") for this one pair.
     */
    static bool
    excluded(const std::string &net, const std::string &arch)
    {
        return net == "alex" && arch == "cnv-b32";
    }

    void
    setup() override
    {
        cache_.reset();
        nets_ = buildNetworks(nn::zoo::allNetworks(), seed_);
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        std::vector<std::pair<const nn::Network *, int>> layers;
        for (const auto &net : nets_)
            for (int id : net->convNodeIds())
                layers.emplace_back(net.get(), id);
        sim::parallelFor(layers.size(), [&](std::size_t i) {
            const auto &[net, id] = layers[i];
            tensor::saveTensorFile(files_.pathFor(*net, id, seed_),
                                   synthTraced(*net, id, seed_));
        });
        cells_.clear();
        for (mem::Kind kind : {mem::Kind::Ideal, mem::Kind::Banked})
            for (const auto &net : nets_)
                for (const auto &model : arch::builtin().models())
                    if (!excluded(net->name(), model->id()))
                        cells_.push_back({net.get(), model.get(), kind});
    }

    Ops
    iterate(bool traced) override
    {
        cache_ = std::make_unique<IterationCache>();
        const timing::TraceProvider *traces =
            traced ? static_cast<const timing::TraceProvider *>(&reader_)
                   : &files_;
        std::vector<dadiannao::NetworkResult> results(cells_.size());
        sim::parallelFor(cells_.size(), [&](std::size_t i) {
            const Cell &c = cells_[i];
            timing::RunOptions opts;
            opts.imageSeed = seed_;
            opts.traces = traces;
            opts.cache = &cache_->cache;
            opts.memKind = c.kind;
            if (traced)
                results[i] = TracedArch(*c.model, *cache_, nullptr)
                                 .simulateNetwork({}, *c.net, opts);
            else
                results[i] = c.model->simulateNetwork({}, *c.net, opts);
        });
        Ops ops;
        memCounters_ = {};
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            const Cell &c = cells_[i];
            std::string value =
                "{\"cycles\": " + std::to_string(results[i].totalCycles());
            if (c.kind == mem::Kind::Banked) {
                const dadiannao::MemTrace m = results[i].totalMem();
                memCounters_ += m;
                value += ", \"nm_conflict_cycles\": " +
                         std::to_string(m.nmConflictCycles) +
                         ", \"gb_hits\": " + std::to_string(m.gbHits) +
                         ", \"gb_misses\": " + std::to_string(m.gbMisses);
            }
            ops.emplace_back(c.net->name() + "/" + c.model->id() + "/" +
                                 (c.kind == mem::Kind::Ideal ? "ideal"
                                                             : "banked"),
                             value + "}");
        }
        return ops;
    }

    void
    probe() override
    {
        // The ideal twin of every banked cell on the now-warm cache:
        // banked minus this is the banked memory model's own cost.
        std::vector<const Cell *> banked;
        for (const Cell &c : cells_)
            if (c.kind == mem::Kind::Banked)
                banked.push_back(&c);
        sim::parallelFor(banked.size(), [&](std::size_t i) {
            timing::RunOptions opts;
            opts.imageSeed = seed_;
            opts.traces = &reader_;
            opts.cache = &cache_->cache;
            const ScopedSpan span("mem.ideal_twin");
            banked[i]->model->simulateNetwork({}, *banked[i]->net, opts);
        });
        for (const Cell *c : banked)
            probeConvTiming(*cache_, *c->net, seed_, &reader_, *c->model);
    }

    double
    simMacs() const override
    {
        double macs = 0;
        for (const Cell &c : cells_)
            macs += static_cast<double>(c.net->totalConvMacs());
        return macs;
    }

    std::vector<std::pair<std::string, double>>
    simulatedCounters() const override
    {
        const double lookups = static_cast<double>(memCounters_.gbHits +
                                                   memCounters_.gbMisses);
        return {{"mem.nm_conflict_cycles",
                 static_cast<double>(memCounters_.nmConflictCycles)},
                {"mem.gb_miss_ratio",
                 lookups > 0 ? static_cast<double>(memCounters_.gbMisses) /
                                   lookups
                             : 0.0}};
    }

  private:
    struct Cell
    {
        const nn::Network *net;
        const arch::ArchModel *model;
        mem::Kind kind;
    };

    std::uint64_t seed_;
    std::string dir_;
    timing::DirectoryTraceProvider files_;
    ReadProvider reader_;
    std::vector<std::unique_ptr<nn::Network>> nets_;
    std::vector<Cell> cells_;
    std::unique_ptr<IterationCache> cache_;
    dadiannao::MemTrace memCounters_;
};

/** Lossless threshold search with the `cnvsim prune` defaults. */
class PruneSearch : public Workload
{
  public:
    explicit PruneSearch(std::uint64_t seed) : seed_(seed) {}

    void
    setup() override
    {
        nets_.clear();
        for (nn::zoo::NetId id : {nn::zoo::NetId::Nin, nn::zoo::NetId::Alex,
                                  nn::zoo::NetId::CnnS}) {
            Pair p;
            p.full = nn::zoo::build(id, seed_);
            p.acc = nn::zoo::build(id, seed_, kAccuracyScale);
            p.acc->calibrate();
            nets_.push_back(std::move(p));
        }
    }

    Ops
    iterate(bool /*traced*/) override
    {
        Ops ops;
        for (Pair &p : nets_) {
            const ScopedSpan span("pruning.search." + p.full->name());
            p.found = pruning::searchLossless({}, *p.full, *p.acc, options());
            std::string thresholds;
            for (std::int32_t t : p.found.config.thresholds)
                thresholds += (thresholds.empty() ? "" : ", ") +
                              std::to_string(t);
            ops.emplace_back(p.full->name() + "/search",
                             "{\"thresholds\": [" + thresholds +
                                 "], \"speedup\": " + num(p.found.speedup) +
                                 ", \"accuracy\": " +
                                 num(p.found.relativeAccuracy) + "}");
        }
        return ops;
    }

    void
    probe() override
    {
        const pruning::SearchOptions opts = options();
        for (const Pair &p : nets_) {
            nn::ForwardOptions pruned;
            pruned.prune = &p.found.config;
            for (int i = 0; i < opts.accuracyImages; ++i) {
                const auto image = nn::synthesizeImage(
                    p.acc->node(0).outShape,
                    opts.seed + static_cast<std::uint64_t>(i));
                for (const nn::ForwardOptions &fo :
                     {nn::ForwardOptions{}, pruned}) {
                    const ScopedSpan span("nn.forward");
                    p.acc->forward(image, fo);
                }
            }
            const ScopedSpan span("timing.speedup");
            const double s = timing::speedup({}, *p.full, opts.timingImages,
                                             opts.seed, &p.found.config);
            if (s != p.found.speedup)
                throw sim::FatalError("timing::speedup disagrees with the "
                                      "search on " + p.full->name());
        }
    }

    double
    simMacs() const override
    {
        // Each search times its network once on dadiannao and on cnv.
        double macs = 0;
        for (const Pair &p : nets_)
            macs += 2.0 * static_cast<double>(p.full->totalConvMacs());
        return macs;
    }

  private:
    /** `cnvsim prune` defaults: --scale 8, max(6, 3 x images). */
    static constexpr int kAccuracyScale = 8;
    static constexpr int kAccuracyImages = 6;

    struct Pair
    {
        std::unique_ptr<nn::Network> full;
        std::unique_ptr<nn::Network> acc;
        pruning::ExplorationPoint found;
    };

    pruning::SearchOptions
    options() const
    {
        pruning::SearchOptions o;
        o.accuracyImages = kAccuracyImages;
        o.timingImages = 1;
        o.seed = seed_ + 7;
        return o;
    }

    std::uint64_t seed_;
    std::vector<Pair> nets_;
};

// ---------------------------------------------------------------------------
// Driver

struct Options
{
    std::string workload;
    std::uint64_t seed = 2016;
    double seconds = 10;
    std::string traceOut;
    bool reference = false;
    std::string workDir = ".";
    bool checkAssumptions = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                throw sim::FatalError("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = next();
        else if (a == "--seed")
            o.seed = std::stoull(next());
        else if (a == "--seconds")
            o.seconds = std::stod(next());
        else if (a == "--trace-out")
            o.traceOut = next();
        else if (a == "--work-dir")
            o.workDir = next();
        else if (a == "--reference")
            o.reference = true;
        else if (a == "--check-assumptions")
            o.checkAssumptions = true;
        else
            throw sim::FatalError("unknown argument " + a);
    }
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "zoo_cold")
        return std::make_unique<ZooCold>(o.seed);
    if (o.workload == "design_sweep")
        return std::make_unique<DesignSweep>(
            o.seed, o.workDir + "/design_sweep_traces." +
                        std::to_string(o.seed));
    if (o.workload == "prune_search")
        return std::make_unique<PruneSearch>(o.seed);
    throw sim::FatalError("unknown workload '" + o.workload + "'");
}

double
secondsSince(std::uint64_t startNs)
{
    return static_cast<double>(perfbench::nowNanos() - startNs) * 1e-9;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Pool and cache counters summed over the traced iterations. */
struct RegistryTotals
{
    double busyNs = 0, idleNs = 0, tasks = 0;
    double tensorHits = 0, tensorMisses = 0, countHits = 0, countMisses = 0;

    static RegistryTotals
    now()
    {
        RegistryTotals t;
        const auto snap = sim::metrics().snapshot();
        for (const auto &[name, value] : snap.counters) {
            const double v = static_cast<double>(value);
            auto ends = [&](const std::string &suffix) {
                return name.rfind("pool.", 0) == 0 &&
                       name.size() > suffix.size() &&
                       name.compare(name.size() - suffix.size(),
                                    suffix.size(), suffix) == 0;
            };
            if (ends(".busyNanos"))
                t.busyNs += v;
            else if (ends(".idleNanos"))
                t.idleNs += v;
            else if (ends(".tasks"))
                t.tasks += v;
            else if (name == "traceCache.tensorHits")
                t.tensorHits += v;
            else if (name == "traceCache.tensorMisses")
                t.tensorMisses += v;
            else if (name == "traceCache.countMapHits")
                t.countHits += v;
            else if (name == "traceCache.countMapMisses")
                t.countMisses += v;
        }
        return t;
    }

    void
    addDelta(const RegistryTotals &a, const RegistryTotals &b)
    {
        busyNs += b.busyNs - a.busyNs;
        idleNs += b.idleNs - a.idleNs;
        tasks += b.tasks - a.tasks;
        tensorHits += b.tensorHits - a.tensorHits;
        tensorMisses += b.tensorMisses - a.tensorMisses;
        countHits += b.countHits - a.countHits;
        countMisses += b.countMisses - a.countMisses;
    }
};

/**
 * Per-layer figures from the traced iterations. Times are seconds
 * per iteration; set-up spans add their cost per set-up. `layerSelf`
 * receives the self time per iteration of each layer (a span name's
 * first two components) inside the iterations, which run.py ranks.
 */
std::vector<std::pair<std::string, double>>
layerMetrics(const std::vector<perfbench::Span> &spans, int iterations,
             const RegistryTotals &reg,
             std::map<std::string, double> &layerSelf)
{
    const std::vector<double> self =
        perfbench::SpanRecorder::selfSeconds(spans);
    // Sums over the iterations ([0]) and over the one traced set-up
    // ([1], spans of iteration -1).
    struct Sums
    {
        double self[2] = {0, 0}, dur[2] = {0, 0}, calls[2] = {0, 0};
    };
    std::map<std::string, Sums> sums;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const perfbench::Span &s = spans[i];
        Sums &m = sums[s.name];
        const int k = s.iteration >= 0 ? 0 : 1;
        m.self[k] += self[i];
        m.dur[k] += static_cast<double>(s.endNs - s.startNs) * 1e-9;
        m.calls[k] += 1;
    }
    std::map<std::string, double> selfBy, durBy, callsBy;
    for (const auto &[name, m] : sums) {
        selfBy[name] = m.self[0] / iterations + m.self[1];
        durBy[name] = m.dur[0] / iterations + m.dur[1];
        callsBy[name] = m.calls[0] / iterations + m.calls[1];
    }
    const double synthSelfTotal =
        sums.count("nn.synth") ? sums["nn.synth"].self[0] +
                                     sums["nn.synth"].self[1]
                               : 0.0;
    std::vector<bool> inProbe(spans.size(), false);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const int p = spans[i].parent;
        inProbe[i] = spans[i].name == "probe" ||
                     (p >= 0 && inProbe[static_cast<std::size_t>(p)]);
        const std::string &n = spans[i].name;
        // Waiting on another thread's cache fill is not work of its own.
        if (inProbe[i] || spans[i].iteration < 0 || n == "iteration" ||
            n == "timing.cache_wait")
            continue;
        const std::size_t dot = n.find('.', n.find('.') + 1);
        layerSelf[n.substr(0, dot)] += self[i] / iterations;
    }
    auto get = [](const std::map<std::string, double> &m,
                  const std::string &k) {
        const auto it = m.find(k);
        return it != m.end() ? it->second : 0.0;
    };
    const double mb = 1e-6;
    std::vector<std::pair<std::string, double>> out = {
        {"nn.synth_s", get(selfBy, "nn.synth")},
        {"nn.synth_calls", get(callsBy, "nn.synth")},
        {"nn.synth_mb_per_s",
         synthSelfTotal > 0
             ? static_cast<double>(g_counters.synthBytes) * mb / synthSelfTotal
             : 0.0},
        {"sim.pool_utilization",
         reg.busyNs + reg.idleNs > 0 ? reg.busyNs / (reg.busyNs + reg.idleNs)
                                     : 0.0},
        {"sim.pool_tasks", reg.tasks / iterations},
        {"sim.pool_idle_s", reg.idleNs * 1e-9 / iterations},
    };
    for (nn::zoo::NetId id : nn::zoo::allNetworks()) {
        const std::string net = nn::zoo::netName(id);
        out.emplace_back("driver.evaluate_s." + net,
                         get(durBy, "driver.evaluate." + net));
    }
    const double tensorLookups = reg.tensorHits + reg.tensorMisses -
                                 static_cast<double>(
                                     g_counters.tensorPrefetches);
    const double countLookups = reg.countHits + reg.countMisses -
                                static_cast<double>(
                                    g_counters.countPrefetches);
    const double simIdeal = get(selfBy, "arch.simulate.ideal");
    const double simBanked = get(selfBy, "arch.simulate.banked");
    const double bankedExtra =
        simBanked > 0 ? simBanked - get(durBy, "mem.ideal_twin") : 0.0;
    // For the ranking, the banked replay is split off arch.simulate.
    if (bankedExtra > 0) {
        layerSelf["arch.simulate"] -= bankedExtra;
        layerSelf["mem.banked_extra"] = bankedExtra;
    }
    const std::vector<std::pair<std::string, double>> rest = {
        {"zfnaf.count_s", get(selfBy, "zfnaf.count")},
        {"zfnaf.count_calls", get(callsBy, "zfnaf.count")},
        {"timing.tensor_hit_ratio",
         tensorLookups > 0 ? (tensorLookups - reg.tensorMisses) / tensorLookups
                           : 0.0},
        {"timing.count_hit_ratio",
         countLookups > 0 ? (countLookups - reg.countMisses) / countLookups
                          : 0.0},
        {"timing.cache_wait_s", get(selfBy, "timing.cache_wait")},
        {"timing.conv_s", get(selfBy, "timing.conv")},
        {"timing.conv_calls", get(callsBy, "timing.conv")},
        {"tensor.read_s", get(selfBy, "tensor.read")},
        {"tensor.read_mb",
         static_cast<double>(g_counters.readBytes) * mb / iterations},
        {"mem.banked_extra_s", bankedExtra},
        {"arch.simulate_s", simIdeal + simBanked},
        {"nn.forward_s", get(selfBy, "nn.forward")},
        {"nn.forward_calls", get(callsBy, "nn.forward")},
        {"pruning.search_s.nin", get(selfBy, "pruning.search.nin")},
        {"pruning.search_s.alex", get(selfBy, "pruning.search.alex")},
        {"pruning.search_s.cnnS", get(selfBy, "pruning.search.cnnS")},
        {"timing.speedup_s", get(selfBy, "timing.speedup")},
        {"trace.uncovered_s", get(selfBy, "iteration")},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
}

/** design_sweep's excluded pair still raises FatalError. */
bool
invalidPairRaises()
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Alex, 2016);
    timing::RunOptions opts;
    opts.imageSeed = 2016;
    try {
        arch::builtin().get("cnv-b32").simulateNetwork({}, *net, opts);
    } catch (const sim::FatalError &e) {
        const std::string what = e.what();
        std::cout << "alex x cnv-b32 raises: " << what << '\n';
        return what.find("group depth must be brick aligned") !=
               std::string::npos;
    }
    std::cout << "alex x cnv-b32 no longer raises\n";
    return false;
}

/** modelPrune() gives the config cnv-pruned uses when passed none. */
bool
pruneDefaultMatches()
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    const arch::ArchModel &model = arch::builtin().get("cnv-pruned");
    timing::RunOptions opts;
    opts.imageSeed = 2016;
    const std::uint64_t implicit =
        model.simulateNetwork({}, *net, opts).totalCycles();
    nn::PruneConfig defaults;
    opts.prune = modelPrune(model, *net, nullptr, defaults);
    const std::uint64_t explicitCycles =
        model.simulateNetwork({}, *net, opts).totalCycles();
    std::cout << "nin x cnv-pruned cycles: " << implicit
              << " without a prune config, " << explicitCycles
              << " with the assumed default\n";
    return implicit == explicitCycles;
}

int
run(const Options &o)
{
    perfbench::markMainThread();
    const int jobs = std::min(kMaxJobs, sim::defaultJobCount());
    sim::setJobCount(jobs);
    std::unique_ptr<Workload> w = makeWorkload(o);
    const bool tracing = !o.traceOut.empty();

    // The traced run sets up once, with spans; the per-layer figures
    // count that one set-up.
    std::vector<double> setups;
    double setupTotal = 0;
    auto setUp = [&] {
        const std::uint64_t t0 = perfbench::nowNanos();
        w->setup();
        setups.push_back(secondsSince(t0));
        setupTotal += setups.back();
    };
    perfbench::SpanRecorder rec;
    perfbench::setRecorder(tracing ? &rec : nullptr);
    setUp();
    perfbench::setRecorder(nullptr);

    std::ostringstream out;
    out << "{\"workload\": " << quote(o.workload) << ", \"seed\": " << o.seed
        << ", \"jobs\": " << jobs;

    if (o.reference) {
        sim::setJobCount(1);
        out << ", \"reference\": " << opsJson(w->iterate(false));
        sim::setJobCount(jobs);
    }

    // Warm-up: the pool's threads start and lazy state fills.
    std::vector<std::string> iterations;
    iterations.push_back("{\"warmup\": true, \"ops\": " +
                         opsJson(w->iterate(false)) + "}");

    std::vector<double> walls, tracedWalls;
    double wallTotal = 0;
    const double untracedBudget = tracing ? o.seconds / 3 : o.seconds;
    std::uint64_t start = perfbench::nowNanos();
    while (walls.size() < kMinIterations ||
           secondsSince(start) < untracedBudget) {
        const std::uint64_t t0 = perfbench::nowNanos();
        Ops ops = w->iterate(false);
        walls.push_back(secondsSince(t0));
        wallTotal += walls.back();
        iterations.push_back("{\"wall_s\": " + num(walls.back()) +
                             ", \"ops\": " + opsJson(ops) + "}");
        while (!tracing && setupTotal < kSetupShare * (setupTotal + wallTotal))
            setUp();
    }
    out << ", \"setup_s\": " << num(median(setups))
        << ", \"setups\": " << setups.size();

    std::string layers;
    if (tracing) {
        sim::metrics().setEnabled(true);
        perfbench::setRecorder(&rec);
        RegistryTotals reg;
        start = perfbench::nowNanos();
        int iter = 0;
        while (tracedWalls.size() < kMinIterations ||
               secondsSince(start) < o.seconds - untracedBudget) {
            rec.setIteration(iter++);
            const RegistryTotals before = RegistryTotals::now();
            const std::uint64_t t0 = perfbench::nowNanos();
            Ops ops;
            {
                const ScopedSpan span("iteration", true);
                ops = w->iterate(true);
            }
            tracedWalls.push_back(secondsSince(t0));
            reg.addDelta(before, RegistryTotals::now());
            {
                const ScopedSpan span("probe", true);
                w->probe();
            }
            iterations.push_back("{\"traced\": true, \"wall_s\": " +
                                 num(tracedWalls.back()) +
                                 ", \"ops\": " + opsJson(ops) + "}");
        }
        perfbench::setRecorder(nullptr);
        sim::metrics().setEnabled(false);
        rec.writeChromeTrace(o.traceOut, "perfbench " + o.workload);

        std::map<std::string, double> selfByLayer;
        auto metrics = layerMetrics(rec.spans(), iter, reg, selfByLayer);
        for (const auto &kv : w->simulatedCounters())
            metrics.push_back(kv);
        metrics.emplace_back("trace.overhead_s",
                             median(tracedWalls) - median(walls));
        layers = ", \"self_by_layer\": {";
        for (const auto &[name, v] : selfByLayer)
            layers += (layers.back() == '{' ? "" : ", ") + quote(name) +
                      ": " + num(v);
        layers += "}, \"layers\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i)
            layers += (i ? ", " : "") + quote(metrics[i].first) + ": " +
                      num(metrics[i].second);
        layers += "}";
    }

    out << ", \"sim_macs_per_iteration\": " << num(w->simMacs())
        << ", \"peak_heap_bytes\": " << perfbench::peakHeapBytes()
        << ", \"peak_rss_bytes\": " << sim::processPeakRssBytes()
        << ", \"iterations\": [";
    for (std::size_t i = 0; i < iterations.size(); ++i)
        out << (i ? ",\n" : "\n") << iterations[i];
    out << "]" << layers << "}\n";
    std::cout << out.str();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options o = parseArgs(argc, argv);
        if (o.checkAssumptions) {
            const bool raises = invalidPairRaises();
            return raises && pruneDefaultMatches() ? 0 : 1;
        }
        return run(o);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_cnv: " << e.what() << '\n';
        return 1;
    }
}
