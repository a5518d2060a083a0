#include "driver/options.h"

#include <algorithm>
#include <charconv>
#include <optional>
#include <system_error>
#include <type_traits>

#include "nn/zoo/zoo.h"
#include "sim/logging.h"

namespace cnv::driver {

namespace {

using Progress = sim::MetricsRegistry::Progress;

/** Parse `value` into `row`'s field (a switch ignores it). */
void
store(const Option &row, std::string_view value)
{
    auto invalid = [&](std::string_view expected) {
        const char *fmt = "invalid value '{}' for {} (expected {})";
        return UsageError(sim::strfmt(fmt, value, row.name, expected), false);
    };
    std::visit(
        [&]<typename T>(const T &target) {
            if constexpr (std::is_same_v<T, OutputPath>) {
                if (value.empty())
                    throw invalid("an output path");
                *target.field = value;
            } else if constexpr (std::is_same_v<T, std::string *>) {
                *target = value;
            } else if constexpr (std::is_same_v<T, bool *>) {
                *target = true;
            } else if constexpr (std::is_same_v<T, mem::Kind *>) {
                const auto kind = mem::parseKind(value);
                if (!kind)
                    throw invalid("'ideal' or 'banked'");
                *target = *kind;
            } else if constexpr (std::is_same_v<T, Progress *>) {
                if (value == "on")
                    *target = Progress::On;
                else if (value == "off")
                    *target = Progress::Off;
                else if (value == "auto")
                    *target = Progress::Auto;
                else
                    throw invalid("on, off or auto");
            } else { // Number<N>: one N in [lo, hi], nothing else
                using N = std::remove_pointer_t<decltype(target.field)>;
                N parsed{};
                const char *end = value.data() + value.size();
                const auto [ptr, ec] =
                    std::from_chars(value.data(), end, parsed);
                // Written as !(in range) so a parsed NaN is rejected.
                if (ec != std::errc() || ptr != end ||
                    !(parsed >= target.lo && parsed <= target.hi)) {
                    const char *what =
                        std::is_integral_v<N> ? "an integer" : "a number";
                    throw invalid(
                        target.hi == std::numeric_limits<N>::max()
                            ? sim::strfmt("{} >= {}", what, target.lo)
                            : sim::strfmt("{} in [{}, {}]", what,
                                          target.lo, target.hi));
                }
                *target.field = parsed;
            }
        },
        row.target);
}

/** `line` followed by the `accepted` rows ("--images N"), wrapped at
 *  72 columns with an 8-column indent. */
std::string
usageLines(std::string line, std::span<const Option> table,
           std::span<const std::string_view> accepted)
{
    std::string text;
    for (std::string_view name : accepted) {
        const auto row = std::ranges::find(table, name, &Option::name);
        CNV_ASSERT(row != table.end(), "no option row for {}", name);
        std::string word(name);
        if (!row->metavar.empty())
            word.append(" ").append(row->metavar);
        if (line.size() + 1 + word.size() > 72) {
            text += line + "\n";
            line = std::string(8, ' ');
        } else {
            line += ' ';
        }
        line += word;
    }
    return text + line + "\n";
}

/** The rows writing `cfg`, plus --jobs. */
std::vector<Option>
experimentOptions(ExperimentConfig &cfg, int &jobs)
{
    return {
        {"--images", "N", Number<int>{&cfg.images, 1}},
        {"--seed", "S", Number<std::uint64_t>{&cfg.seed, 0}},
        {"--scale", "K", Number<int>{&cfg.accuracyScale, 1}},
        {"--weight-sparsity", "F",
         Number<double>{&cfg.weightSparsity, 0.0, 1.0}},
        {"--mem", "ideal|banked", &cfg.memKind},
        {"--jobs", "N", Number<int>{&jobs, 1}},
    };
}

std::vector<Option>
benchOptionTable(BenchOptions &opts)
{
    std::vector<Option> table = experimentOptions(opts.experiment, opts.jobs);
    table.insert(table.end(),
                 {{"--csv", "", &opts.csv},
                  {"--quick", "", &opts.quick},
                  {"--json", "PATH", OutputPath{&opts.json}},
                  {"--trace-out", "PATH", OutputPath{&opts.traceOut}},
                  {"--help", "", &opts.help}});
    return table;
}

std::vector<std::string_view>
benchFlags(unsigned outputs)
{
    std::vector<std::string_view> flags{"--images", "--seed", "--csv",
                                        "--quick"};
    if (outputs & kJsonArtifact)
        flags.push_back("--json");
    if (outputs & kTraceOut)
        flags.push_back("--trace-out");
    flags.insert(flags.end(), {"--jobs", "--mem", "--help"});
    return flags;
}

} // namespace

void
parseOptions(std::span<const Option> table,
             std::span<const std::string_view> accepted,
             std::span<const std::string> args, std::string_view scope)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        std::string_view name = args[i];
        if (!name.starts_with("--"))
            throw UsageError(sim::strfmt("unexpected argument '{}'", name),
                             true);
        std::optional<std::string_view> value;
        if (const std::size_t eq = name.find('='); eq != name.npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
        }
        const auto row = std::ranges::find(table, name, &Option::name);
        if (row == table.end())
            throw UsageError(sim::strfmt("unknown option {}", name), true);
        if (std::holds_alternative<bool *>(row->target)) {
            if (value)
                throw UsageError(
                    sim::strfmt("option {} takes no value", name), true);
        } else if (!value) {
            if (i + 1 == args.size())
                throw UsageError(sim::strfmt("missing value for {}", name),
                                 true);
            value = args[++i];
        }
        // The value is checked before acceptance, so a malformed value
        // reads the same on every front end.
        store(*row, value.value_or(""));
        if (std::ranges::find(accepted, name) == accepted.end())
            throw UsageError(sim::strfmt("option {} is not supported by {}",
                                         name, scope),
                             true);
    }
}

const std::vector<CliCommand> &
cliCommands()
{
    static const std::vector<CliCommand> commands = [] {
        // Every command that runs a network also reads these.
        auto withGlobals = [](std::vector<std::string_view> flags) {
            flags.insert(flags.end(),
                         {"--net", "--jobs", "--perf-json", "--progress"});
            return flags;
        };
        return std::vector<CliCommand>{
            {"list", {}},
            {"archs", {"--ids"}},
            {"run",
             withGlobals({"--arch", "--images", "--seed",
                          "--weight-sparsity", "--mem", "--layers",
                          "--stats", "--report-json", "--report-csv"})},
            {"power",
             withGlobals({"--arch", "--images", "--seed",
                          "--weight-sparsity", "--mem"})},
            {"prune",
             withGlobals({"--images", "--seed", "--scale", "--floor"})},
            {"validate", withGlobals({"--seed", "--scale"})},
            {"zfnaf", withGlobals({"--seed"})},
            {"export-traces", withGlobals({"--images", "--seed", "--out"})},
            {"trace",
             withGlobals({"--arch", "--images", "--seed",
                          "--weight-sparsity", "--mem", "--max-events",
                          "--trace-out", "--stall-csv", "--stats"})},
            {"reproduce",
             {"--images", "--seed", "--mem", "--jobs", "--perf-json",
              "--progress"}},
        };
    }();
    return commands;
}

std::vector<Option>
cliOptionTable(CliOptions &opts)
{
    std::vector<Option> table = experimentOptions(opts.experiment, opts.jobs);
    table.insert(
        table.end(),
        {{"--net", "NAME", &opts.net},
         {"--arch", "a,b,...", &opts.archs},
         {"--ids", "", &opts.ids},
         {"--stats", "", &opts.stats},
         {"--layers", "", &opts.layers},
         {"--floor", "F", Number<double>{&opts.floor, 0.0, 1.0}},
         {"--out", "DIR", OutputPath{&opts.out}},
         {"--report-json", "PATH", OutputPath{&opts.reportJson}},
         {"--report-csv", "PATH", OutputPath{&opts.reportCsv}},
         {"--trace-out", "PATH", OutputPath{&opts.traceOut}},
         {"--stall-csv", "PATH", OutputPath{&opts.stallCsv}},
         {"--max-events", "N", Number<std::uint64_t>{&opts.maxEvents, 1}},
         {"--perf-json", "PATH", OutputPath{&opts.perfJson}},
         {"--progress", "on|off|auto", &opts.progress}});
    return table;
}

CliOptions
parseCli(std::span<const std::string> args)
{
    if (args.empty())
        throw UsageError("missing command", true);
    const auto &commands = cliCommands();
    const auto command =
        std::ranges::find(commands, args[0], &CliCommand::name);
    if (command == commands.end())
        throw UsageError(sim::strfmt("unknown command '{}'", args[0]), true);

    CliOptions opts;
    opts.command = args[0];
    opts.experiment.images = 2;
    // The network may come first, positionally; it wins over --net.
    const bool positional = command->takesNetwork() && args.size() > 1 &&
                            !args[1].starts_with("--");
    parseOptions(cliOptionTable(opts), command->flags,
                 args.subspan(positional ? 2 : 1), "cnvsim " + opts.command);
    if (positional)
        opts.net = args[1];
    if (command->takesNetwork() && opts.net.empty())
        throw UsageError(sim::strfmt("{} needs a network", opts.command),
                         true);
    return opts;
}

std::string
cliUsage()
{
    CliOptions scratch;
    const std::vector<Option> table = cliOptionTable(scratch);
    std::string text = "usage: cnvsim <command> [network] [options]\n"
                       "  networks:";
    for (nn::zoo::NetId id : nn::zoo::allNetworks())
        text.append(" ").append(nn::zoo::netName(id));
    text += "\n  commands, each with the options it accepts:\n";
    for (const CliCommand &command : cliCommands())
        text += usageLines("    " + std::string(command.name) +
                               (command.takesNetwork() ? " <network>" : ""),
                           table, command.flags);
    return text;
}

BenchOptions
parseBenchArgs(std::span<const std::string> args, int defaultImages,
               unsigned outputs)
{
    BenchOptions opts;
    opts.experiment.images = defaultImages;
    parseOptions(benchOptionTable(opts), benchFlags(outputs), args,
                 "this bench");
    return opts;
}

std::string
benchUsage(unsigned outputs)
{
    BenchOptions scratch;
    return usageLines("options:", benchOptionTable(scratch),
                      benchFlags(outputs));
}

} // namespace cnv::driver
