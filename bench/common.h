/**
 * @file
 * Shared scaffolding for the reproduction bench binaries: each
 * binary regenerates one table or figure of the paper (see
 * DESIGN.md's per-experiment index) and prints the same rows the
 * paper reports, plus the paper's value for comparison. Benches
 * parse their options with cnvsim's option table (driver/options.h);
 * each accepts only the flags it reads, and --help lists them.
 */

#ifndef CNV_BENCH_COMMON_H
#define CNV_BENCH_COMMON_H

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "driver/driver.h"
#include "driver/options.h"
#include "driver/run_manifest.h"
#include "nn/zoo/zoo.h"
#include "sim/metrics.h"
#include "sim/parallel.h"
#include "sim/stats_export.h"
#include "sim/table.h"

namespace cnv::bench {

using Options = driver::BenchOptions;

/**
 * Parse the command line (driver::parseBenchArgs) of a bench reading
 * `flags`, configure the worker pool and turn on telemetry. A
 * malformed command line, or a flag not in `flags`, exits 2 with its
 * diagnostic; --help prints the usage text and exits 0.
 */
inline Options
parseArgs(int argc, char **argv, std::vector<std::string_view> flags,
          int defaultImages = 1)
{
    // Benches always profile themselves: the hostProfile block of
    // their --json artifacts is what the perf-regression gate
    // compares across the committed BENCH_* trajectory.
    sim::metrics().setEnabled(true);

    const std::vector<std::string> args(argv + 1, argv + argc);
    Options opts;
    try {
        opts = driver::parseBenchArgs(args, defaultImages, flags);
    } catch (const driver::UsageError &e) {
        std::cerr << e.what() << '\n';
        if (e.showUsage())
            std::cerr << driver::benchUsage(flags);
        std::exit(2);
    }
    if (opts.help) {
        std::cout << driver::benchUsage(flags);
        std::exit(0);
    }
    if (opts.jobs > 0)
        sim::setJobCount(opts.jobs);
    return opts;
}

/** The zoo networks in nn::zoo::allNetworks() order, built once. */
struct Zoo
{
    std::vector<std::unique_ptr<nn::Network>> owned;
    /** The same networks, as driver::evaluateNetworks() takes them. */
    std::vector<const nn::Network *> nets;

    explicit Zoo(std::uint64_t seed)
    {
        for (nn::zoo::NetId id : nn::zoo::allNetworks()) {
            owned.push_back(nn::zoo::build(id, seed));
            nets.push_back(owned.back().get());
        }
    }
};

/**
 * The canonical speedup, one row per zoo network and one column per
 * configuration in `configs` (one driver::evaluateNetworks() sweep
 * each, all sharing `cache`), under `header`. With `average`, a row
 * of driver::meanSpeedup() follows.
 */
inline sim::Table
speedupTable(std::vector<std::string> header, const Zoo &zoo,
             const std::vector<driver::ExperimentConfig> &configs,
             timing::TraceCache &cache, bool average = false)
{
    std::vector<std::vector<driver::NetworkReport>> columns;
    for (const driver::ExperimentConfig &cfg : configs)
        columns.push_back(driver::evaluateNetworks(
            cfg, zoo.nets, arch::canonicalPair(), nullptr, &cache));
    sim::Table t(std::move(header));
    for (std::size_t n = 0; n < zoo.nets.size(); ++n) {
        std::vector<std::string> row{zoo.nets[n]->name()};
        for (const auto &reports : columns)
            row.push_back(sim::Table::num(reports[n].speedup()));
        t.addRow(std::move(row));
    }
    if (average) {
        std::vector<std::string> row{"average"};
        for (const auto &reports : columns)
            row.push_back(sim::Table::num(driver::meanSpeedup(reports)));
        t.addRow(std::move(row));
    }
    return t;
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
