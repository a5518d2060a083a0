/**
 * @file
 * Shared scaffolding for the reproduction bench binaries: each
 * binary regenerates one table or figure of the paper (see
 * DESIGN.md's per-experiment index) and prints the same rows the
 * paper reports, plus the paper's value for comparison.
 *
 * Options (all optional):
 *   --images N   trace instances per network, >= 1 (default varies)
 *   --seed S     root seed
 *   --csv        emit CSV instead of an aligned table
 *   --quick      minimal work (used for smoke runs)
 *   --json PATH  also write the figure's data as a JSON artifact
 *                (schema "cnv-figure-v1", see docs/observability.md)
 *   --trace-out PATH  write a Chrome trace-event JSON of the runs
 *                (honoured by benches that advertise it in --help)
 *   --jobs N     worker-pool size (default: hardware concurrency or
 *                CNVSIM_JOBS); results are job-count-invariant
 *   --mem M      memory-hierarchy model: 'ideal' (default, keeps the
 *                legacy numbers) or 'banked' (NM banking + global
 *                buffer + DRAM channel)
 */

#ifndef CNV_BENCH_COMMON_H
#define CNV_BENCH_COMMON_H

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <system_error>
#include <vector>

#include "driver/driver.h"
#include "driver/run_manifest.h"
#include "mem/memory_model.h"
#include "sim/metrics.h"
#include "sim/parallel.h"
#include "sim/stats_export.h"
#include "sim/table.h"

namespace cnv::bench {

/** Parsed command-line options shared by all bench binaries. */
struct Options
{
    int images = 2;
    std::uint64_t seed = 2016;
    bool csv = false;
    bool quick = false;
    /** When non-empty, figure data is also written here as JSON. */
    std::string json;
    /** When non-empty, a trace-event JSON is also written here. */
    std::string traceOut;
    /** Worker-pool size this run was configured with. */
    int jobs = 0;
    /** Memory-hierarchy model (ExperimentConfig::memKind). */
    mem::Kind memKind = mem::Kind::Ideal;
};

inline Options
parseArgs(int argc, char **argv, int defaultImages = 2)
{
    // Accept both "--flag value" and "--flag=value" spellings.
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const std::size_t eq = a.find('=');
        if (a.rfind("--", 0) == 0 && eq != std::string::npos) {
            args.push_back(a.substr(0, eq));
            args.push_back(a.substr(eq + 1));
        } else {
            args.push_back(a);
        }
    }

    // Benches always profile themselves: the hostProfile block of
    // their --json artifacts is what the perf-regression gate
    // compares across the committed BENCH_* trajectory.
    sim::metrics().setEnabled(true);

    Options opts;
    opts.images = defaultImages;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= args.size()) {
                std::cerr << "missing value for " << arg << '\n';
                std::exit(2);
            }
            return args[++i];
        };
        // Whole-string numeric parse: a value like "2x" or "abc"
        // must be a clean exit-2 diagnostic, not an uncaught
        // std::invalid_argument out of std::stoi.
        auto numeric = [&](auto &out) {
            const std::string value = next();
            const auto [ptr, ec] = std::from_chars(
                value.data(), value.data() + value.size(), out);
            if (ec != std::errc() || ptr != value.data() + value.size()) {
                std::cerr << "invalid numeric value '" << value
                          << "' for " << arg << '\n';
                std::exit(2);
            }
        };
        // Output paths must name a file; an empty one would
        // silently write nothing.
        auto path = [&](std::string &out) {
            out = next();
            if (out.empty()) {
                std::cerr << "invalid value '' for " << arg
                          << " (expected an output path)\n";
                std::exit(2);
            }
        };
        if (arg == "--images") {
            numeric(opts.images);
            if (opts.images < 1) {
                std::cerr << "invalid numeric value '" << opts.images
                          << "' for " << arg << " (expected >= 1)\n";
                std::exit(2);
            }
        } else if (arg == "--seed") {
            numeric(opts.seed);
        } else if (arg == "--jobs") {
            numeric(opts.jobs);
            if (opts.jobs < 1) {
                std::cerr << "invalid numeric value '" << opts.jobs
                          << "' for " << arg << " (expected >= 1)\n";
                std::exit(2);
            }
        } else if (arg == "--mem") {
            const std::string value = next();
            const auto kind = mem::parseKind(value);
            if (!kind) {
                std::cerr << "invalid value '" << value << "' for "
                          << arg << " (expected 'ideal' or 'banked')\n";
                std::exit(2);
            }
            opts.memKind = *kind;
        } else if (arg == "--json") {
            path(opts.json);
        } else if (arg == "--trace-out") {
            path(opts.traceOut);
        } else if (arg == "--csv") {
            opts.csv = true;
        } else if (arg == "--quick") {
            opts.quick = true;
        } else if (arg == "--help") {
            std::cout << "options: --images N --seed S --csv --quick "
                         "--json PATH --trace-out PATH --jobs N "
                         "--mem ideal|banked\n";
            std::exit(0);
        } else {
            std::cerr << "unknown option " << arg << '\n';
            std::exit(2);
        }
    }
    if (opts.jobs > 0)
        sim::setJobCount(opts.jobs);
    return opts;
}

/** Print the node configuration once, for reproducibility. */
inline void
printConfig(const dadiannao::NodeConfig &cfg)
{
    std::cout << "node: " << cfg.describe() << '\n';
}

/** Print a titled table in the selected format. */
inline void
emit(const Options &opts, const std::string &title, const sim::Table &table)
{
    std::cout << "\n=== " << title << " ===\n";
    if (opts.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout.flush();
}

/**
 * Write a figure's data (a stat tree assembled by the bench binary)
 * as a JSON artifact when --json was given:
 *
 *   { "schema": "cnv-figure-v1",
 *     "figure": "<figure>",
 *     "manifest": { ... RunManifest ... },
 *     "data": <sim::exportJson tree> }
 *
 * The same exporter the driver reports use serializes the tree, so
 * plotting scripts consume one schema for both kinds of file.
 */
inline void
writeFigureArtifact(const Options &opts, const std::string &figure,
                    const dadiannao::NodeConfig &node,
                    const sim::StatGroup &data)
{
    if (opts.json.empty())
        return;
    std::ofstream os(opts.json);
    if (!os) {
        std::cerr << "cannot open JSON artifact file " << opts.json
                  << '\n';
        std::exit(1);
    }
    driver::RunManifest manifest = driver::makeManifest(figure);
    manifest.network = "(all zoo networks)";
    manifest.nodeConfig = node.describe();
    manifest.images = opts.images;
    manifest.seed = opts.seed;
    manifest.mem = mem::kindName(opts.memKind);
    manifest.wallSeconds = sim::metrics().secondsSinceEnable();

    sim::JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("cnv-figure-v1");
    w.key("figure").value(figure);
    w.key("manifest");
    manifest.writeJson(w);
    w.key("data");
    sim::exportJson(data, w);
    w.key("hostProfile");
    sim::writeHostProfile(sim::metrics().snapshot(), w);
    w.endObject();
    os << '\n';
    std::cout << "wrote JSON artifact to " << opts.json << '\n';
}

} // namespace cnv::bench

#endif // CNV_BENCH_COMMON_H
