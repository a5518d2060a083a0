/**
 * @file
 * Shared scaffolding for the reproduction bench binaries: each
 * binary regenerates one table or figure of the paper (see
 * DESIGN.md's per-experiment index) and prints the same rows the
 * paper reports, plus the paper's value for comparison. Benches
 * parse their options with cnvsim's option table (driver/options.h);
 * --help lists them.
 */

#ifndef CNV_BENCH_COMMON_H
#define CNV_BENCH_COMMON_H

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "driver/driver.h"
#include "driver/options.h"
#include "driver/run_manifest.h"
#include "sim/metrics.h"
#include "sim/parallel.h"
#include "sim/stats_export.h"
#include "sim/table.h"

namespace cnv::bench {

using Options = driver::BenchOptions;

/**
 * Parse the command line (driver::parseBenchArgs), configure the
 * worker pool and turn on telemetry. A malformed command line exits
 * 2 with its diagnostic; --help prints the usage text and exits 0.
 */
inline Options
parseArgs(int argc, char **argv, int defaultImages = 2,
          unsigned outputs = driver::kNoOutput)
{
    // Benches always profile themselves: the hostProfile block of
    // their --json artifacts is what the perf-regression gate
    // compares across the committed BENCH_* trajectory.
    sim::metrics().setEnabled(true);

    const std::vector<std::string> args(argv + 1, argv + argc);
    Options opts;
    try {
        opts = driver::parseBenchArgs(args, defaultImages, outputs);
    } catch (const driver::UsageError &e) {
        std::cerr << e.what() << '\n';
        if (e.showUsage())
            std::cerr << driver::benchUsage(outputs);
        std::exit(2);
    }
    if (opts.help) {
        std::cout << driver::benchUsage(outputs);
        std::exit(0);
    }
    if (opts.jobs > 0)
        sim::setJobCount(opts.jobs);
    return opts;
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
    driver::RunManifest manifest =
        driver::makeManifest(figure, opts.experiment, "(all zoo networks)");
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
