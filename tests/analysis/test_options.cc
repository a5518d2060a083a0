/**
 * @file Tests for the command-line option table (driver/options.h):
 * every row kind in both spellings, every malformed-input class,
 * per-command acceptance, usage text generated from the table, and a
 * seeded mutation fuzzer over valid command lines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "driver/driver.h"
#include "driver/options.h"
#include "driver/run_manifest.h"
#include "sim/rng.h"

namespace {

using namespace cnv;
using driver::Number;
using driver::Option;
using driver::OutputPath;
using driver::UsageError;
using Args = std::vector<std::string>;
using Progress = sim::MetricsRegistry::Progress;
using Flags = std::vector<std::string_view>;

/** Every bench row but --help, as bench_fig09_speedup reads them. */
const Flags kEveryBenchFlag = {"--images", "--seed", "--csv",
                               "--quick",  "--json", "--trace-out",
                               "--jobs",   "--mem"};

/** Bench flag lists of several shapes, the last one every row. */
const std::vector<Flags> kBenchFlagLists = {
    {"--csv"},
    {"--seed", "--csv"},
    {"--images", "--seed", "--csv", "--jobs", "--mem"},
    kEveryBenchFlag,
};

/** One field per row kind. */
struct Fields
{
    int integer = 0;
    std::uint64_t unsignedInt = 0;
    double real = 0.0;
    std::string path;
    std::string text;
    bool flag = false;
    mem::Kind memKind = mem::Kind::Ideal;
    Progress progress = Progress::Off;
};

std::vector<Option>
kindTable(Fields &f)
{
    return {
        {"--int", "N", Number<int>{&f.integer, -5, 10}},
        {"--uint", "N", Number<std::uint64_t>{&f.unsignedInt, 0}},
        {"--real", "F", Number<double>{&f.real, 0.0, 1.0}},
        {"--path", "PATH", OutputPath{&f.path}},
        {"--text", "S", &f.text},
        {"--flag", "", &f.flag},
        {"--mem", "ideal|banked", &f.memKind},
        {"--progress", "on|off|auto", &f.progress},
        {"--off", "N", Number<int>{&f.integer, 0}},
    };
}

/** Every kindTable row but --off. */
const std::vector<std::string_view> kAccepted{
    "--int", "--uint", "--real", "--path", "--text", "--flag", "--mem",
    "--progress"};

Fields
parseKinds(const Args &args)
{
    Fields f;
    driver::parseOptions(kindTable(f), kAccepted, args, "the test");
    return f;
}

/** The UsageError `args` raise ("" when they parse). */
std::string
errorOf(const Args &args, bool *showUsage = nullptr)
{
    try {
        parseKinds(args);
    } catch (const UsageError &e) {
        if (showUsage)
            *showUsage = e.showUsage();
        return e.what();
    }
    return "";
}

TEST(Options, EveryRowKindInBothSpellings)
{
    for (const bool joined : {false, true}) {
        auto spell = [&](const std::string &flag, const std::string &v) {
            return joined ? Args{flag + "=" + v} : Args{flag, v};
        };
        EXPECT_EQ(parseKinds(spell("--int", "-5")).integer, -5);
        EXPECT_EQ(parseKinds(spell("--uint", "18446744073709551615"))
                      .unsignedInt,
                  18446744073709551615ULL);
        EXPECT_DOUBLE_EQ(parseKinds(spell("--real", "0.25")).real, 0.25);
        EXPECT_EQ(parseKinds(spell("--path", "a=b.json")).path, "a=b.json");
        EXPECT_EQ(parseKinds(spell("--text", "")).text, "");
        EXPECT_EQ(parseKinds(spell("--text", "x,y")).text, "x,y");
        EXPECT_EQ(parseKinds(spell("--mem", "banked")).memKind,
                  mem::Kind::Banked);
        EXPECT_EQ(parseKinds(spell("--progress", "auto")).progress,
                  Progress::Auto);
    }
    EXPECT_TRUE(parseKinds({"--flag"}).flag);
    EXPECT_FALSE(parseKinds({}).flag);
    // The last occurrence wins.
    EXPECT_EQ(parseKinds({"--int", "1", "--int=2"}).integer, 2);
}

TEST(Options, MalformedValuesAreUsageErrors)
{
    struct Case
    {
        Args args;
        std::string needle;
    };
    const std::vector<Case> cases = {
        {{"--int", "7x"}, "invalid value '7x' for --int (expected an "
                          "integer in [-5, 10])"},
        {{"--int=11"}, "invalid value '11' for --int"},
        {{"--int", "-6"}, "invalid value '-6' for --int"},
        {{"--int", ""}, "invalid value '' for --int"},
        {{"--int", " 1"}, "invalid value ' 1' for --int"},
        {{"--uint", "-1"},
         "invalid value '-1' for --uint (expected an integer >= 0)"},
        {{"--uint", "18446744073709551616"}, "for --uint"},
        {{"--real", "nan"},
         "invalid value 'nan' for --real (expected a number in [0, 1])"},
        {{"--real", "1.5"}, "invalid value '1.5' for --real"},
        {{"--real", "inf"}, "invalid value 'inf' for --real"},
        {{"--real", "0.5.1"}, "invalid value '0.5.1' for --real"},
        {{"--path="}, "invalid value '' for --path (expected an output "
                      "path)"},
        {{"--mem", "fast"}, "invalid value 'fast' for --mem (expected "
                            "'ideal' or 'banked')"},
        {{"--progress", "maybe"}, "invalid value 'maybe' for --progress"},
    };
    for (const Case &c : cases) {
        bool showUsage = true;
        const std::string what = errorOf(c.args, &showUsage);
        EXPECT_NE(what.find(c.needle), std::string::npos)
            << c.args.front() << ": " << what;
        EXPECT_FALSE(showUsage) << what;
    }
}

TEST(Options, MalformedCommandLinesShowUsage)
{
    struct Case
    {
        Args args;
        std::string needle;
    };
    const std::vector<Case> cases = {
        {{"--int"}, "missing value for --int"},
        {{"--flag", "--int"}, "missing value for --int"},
        {{"--nope"}, "unknown option --nope"},
        {{"--nope=1"}, "unknown option --nope"},
        {{"-i", "1"}, "unexpected argument '-i'"},
        {{"stray"}, "unexpected argument 'stray'"},
        {{"--flag=1"}, "option --flag takes no value"},
        {{"--off", "1"}, "option --off is not supported by the test"},
    };
    for (const Case &c : cases) {
        bool showUsage = false;
        const std::string what = errorOf(c.args, &showUsage);
        EXPECT_NE(what.find(c.needle), std::string::npos)
            << c.args.front() << ": " << what;
        EXPECT_TRUE(showUsage) << what;
    }
    // A bad value reads the same whether or not the row is accepted.
    EXPECT_NE(errorOf({"--off", "x"}).find("invalid value 'x' for --off"),
              std::string::npos);
}

TEST(Options, UsageErrorIsAFatalError)
{
    EXPECT_THROW(parseKinds({"--nope"}), sim::FatalError);
}

TEST(Options, SharedRowsWriteTheExperimentConfig)
{
    const auto run = driver::parseCli(
        Args{"run", "nin", "--images", "3", "--seed=7", "--mem", "banked",
             "--weight-sparsity", "0.5", "--jobs", "2"});
    EXPECT_EQ(run.command, "run");
    EXPECT_EQ(run.net, "nin");
    EXPECT_EQ(run.experiment.images, 3);
    EXPECT_EQ(run.experiment.seed, 7u);
    EXPECT_EQ(run.experiment.memKind, mem::Kind::Banked);
    EXPECT_DOUBLE_EQ(run.experiment.weightSparsity, 0.5);
    EXPECT_EQ(run.jobs, 2);

    const auto prune =
        driver::parseCli(Args{"prune", "--net", "cnnM", "--scale", "16"});
    EXPECT_EQ(prune.net, "cnnM");
    EXPECT_EQ(prune.experiment.accuracyScale, 16);
    EXPECT_EQ(prune.experiment.images, 2); // cnvsim's default

    const auto bench = driver::parseBenchArgs(
        Args{"--seed", "9", "--mem=banked", "--quick"}, 5, kEveryBenchFlag);
    EXPECT_EQ(bench.experiment.images, 5); // the bench's default
    EXPECT_EQ(bench.experiment.seed, 9u);
    EXPECT_EQ(bench.experiment.memKind, mem::Kind::Banked);
    EXPECT_TRUE(bench.quick);
}

TEST(Options, NetworkIsPositionalOrNet)
{
    EXPECT_EQ(driver::parseCli(Args{"trace", "--net", "nin"}).net, "nin");
    // The positional network wins over --net.
    EXPECT_EQ(driver::parseCli(Args{"zfnaf", "alex", "--net", "nin"}).net,
              "alex");
    EXPECT_THROW(driver::parseCli(Args{"trace", "--images", "1"}),
                 UsageError);
    EXPECT_THROW(driver::parseCli(Args{}), UsageError);
    EXPECT_THROW(driver::parseCli(Args{"bogus", "nin"}), UsageError);
    // Commands without a network take no positional.
    EXPECT_THROW(driver::parseCli(Args{"reproduce", "nin"}), UsageError);
}

/** A value `row` accepts ("" for a switch). */
std::string
validValue(const Option &row)
{
    return std::visit(
        [](const auto &target) -> std::string {
            using T = std::decay_t<decltype(target)>;
            if constexpr (std::is_same_v<T, Number<int>> ||
                          std::is_same_v<T, Number<std::uint64_t>> ||
                          std::is_same_v<T, Number<double>>) {
                std::ostringstream os;
                os << target.lo;
                return os.str();
            } else if constexpr (std::is_same_v<T, mem::Kind *>) {
                return "ideal";
            } else if constexpr (std::is_same_v<T, Progress *>) {
                return "off";
            } else {
                return "out.json";
            }
        },
        row.target);
}

/** `row` as command-line tokens with a valid value. */
Args
tokens(const Option &row)
{
    if (std::holds_alternative<bool *>(row.target))
        return {std::string(row.name)};
    return {std::string(row.name), validValue(row)};
}

/** The lines of cnvsim's usage text that list `command`'s flags. */
std::string
usageSection(const std::string &usage, std::string_view command)
{
    std::istringstream in(usage);
    std::string line, section;
    bool inside = false;
    const std::string head = "    " + std::string(command);
    while (std::getline(in, line)) {
        if (line.starts_with("    ") && !line.starts_with("        "))
            inside = line == head || line.starts_with(head + " ");
        if (inside)
            section += line + "\n";
    }
    return section;
}

TEST(Options, EachCommandAcceptsExactlyItsRowsAndListsThem)
{
    const std::string usage = driver::cliUsage();
    driver::CliOptions scratch;
    const std::vector<Option> table = driver::cliOptionTable(scratch);
    for (const Option &row : table) {
        bool acceptedSomewhere = false;
        for (const driver::CliCommand &command : driver::cliCommands()) {
            Args args{std::string(command.name)};
            if (command.takesNetwork() && row.name != "--net")
                args.push_back("nin");
            for (const std::string &t : tokens(row))
                args.push_back(t);
            const bool accepts =
                std::find(command.flags.begin(), command.flags.end(),
                          row.name) != command.flags.end();
            const std::string section = usageSection(usage, command.name);
            ASSERT_FALSE(section.empty()) << command.name;
            const bool listed =
                section.find(std::string(row.name) + " ") !=
                    std::string::npos ||
                section.find(std::string(row.name) + "\n") !=
                    std::string::npos;
            EXPECT_EQ(listed, accepts) << command.name << " " << row.name;
            if (accepts) {
                acceptedSomewhere = true;
                EXPECT_NO_THROW(driver::parseCli(args))
                    << command.name << " " << row.name;
            } else {
                EXPECT_THROW(driver::parseCli(args), UsageError)
                    << command.name << " " << row.name;
            }
        }
        EXPECT_TRUE(acceptedSomewhere) << row.name << " is never read";
        EXPECT_NE(usage.find(row.name), std::string::npos) << row.name;
    }
    EXPECT_NO_THROW(driver::parseCli(Args{"archs", "--ids"}));
    EXPECT_THROW(driver::parseCli(Args{"archs", "--idz"}), UsageError);
    EXPECT_THROW(driver::parseCli(Args{"list", "--bogus"}), UsageError);
    EXPECT_THROW(driver::parseCli(Args{"zfnaf", "nin", "--arch", "cnv"}),
                 UsageError);
}

TEST(Options, BenchAcceptsExactlyItsOwnFlags)
{
    // A value each row accepts; switches take none.
    const std::map<std::string_view, std::string> values = {
        {"--images", "2"},     {"--seed", "2"},
        {"--jobs", "2"},       {"--mem", "banked"},
        {"--json", "out.json"}, {"--trace-out", "out.json"}};
    for (const Flags &flags : kBenchFlagLists) {
        const std::string usage = driver::benchUsage(flags);
        EXPECT_TRUE(usage.starts_with("options: " +
                                      std::string(flags.front())))
            << usage;
        EXPECT_NE(usage.find("--help"), std::string::npos) << usage;
        EXPECT_TRUE(driver::parseBenchArgs(Args{"--help"}, 1, flags).help);
        for (const std::string_view flag : kEveryBenchFlag) {
            const bool listed = std::ranges::find(flags, flag) != flags.end();
            EXPECT_EQ(usage.find(flag) != std::string::npos, listed)
                << flag << " in " << usage;
            Args args{std::string(flag)};
            if (const auto value = values.find(flag); value != values.end())
                args.push_back(value->second);
            if (listed) {
                const auto opts = driver::parseBenchArgs(args, 1, flags);
                if (flag == "--json" || flag == "--trace-out") {
                    EXPECT_EQ(flag == "--json" ? opts.json : opts.traceOut,
                              "out.json");
                }
                continue;
            }
            try {
                driver::parseBenchArgs(args, 1, flags);
                ADD_FAILURE() << flag << " accepted by " << usage;
            } catch (const UsageError &e) {
                EXPECT_NE(std::string(e.what()).find("not supported"),
                          std::string::npos)
                    << e.what();
            }
        }
        // cnvsim-only rows and the accuracy knobs are not bench flags.
        for (const std::string flag :
             {"--scale", "--weight-sparsity", "--arch", "--stats"}) {
            EXPECT_EQ(usage.find(flag), std::string::npos) << flag;
            EXPECT_THROW(driver::parseBenchArgs(Args{flag, "1"}, 1, flags),
                         UsageError)
                << flag;
        }
    }
}

TEST(Options, ManifestIsFilledFromTheConfig)
{
    driver::ExperimentConfig cfg;
    cfg.images = 3;
    cfg.seed = 11;
    cfg.weightSparsity = 0.5;
    cfg.memKind = mem::Kind::Banked;
    const driver::RunManifest m = driver::makeManifest("tool", cfg, "nin");
    EXPECT_EQ(m.tool, "tool");
    EXPECT_EQ(m.network, "nin");
    EXPECT_EQ(m.nodeConfig, cfg.node.describe());
    EXPECT_EQ(m.images, 3);
    EXPECT_EQ(m.seed, 11u);
    EXPECT_DOUBLE_EQ(m.weightSparsity, 0.5);
    EXPECT_EQ(m.mem, "banked");
}

/** Apply one random mutation: a byte flip, a truncation, or a dropped
 *  or duplicated token. */
void
mutate(Args &args, sim::Rng &rng)
{
    if (args.empty()) {
        args.emplace_back("--");
        return;
    }
    const std::size_t at = rng.uniformInt(args.size());
    std::string &token = args[at];
    switch (rng.uniformInt(std::uint64_t{5})) {
      case 0: // byte flip
        if (!token.empty())
            token[rng.uniformInt(token.size())] ^=
                static_cast<char>(1u << rng.uniformInt(std::uint64_t{8}));
        break;
      case 1: // truncate a token
        token.resize(rng.uniformInt(token.size() + 1));
        break;
      case 2: // truncate the command line
        args.resize(at);
        break;
      case 3: // drop a token
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      default: // duplicate a token
        args.insert(args.begin() +
                        static_cast<std::ptrdiff_t>(
                            rng.uniformInt(args.size() + 1)),
                    Args::value_type(token));
        break;
    }
}

TEST(Options, MutatedCommandLinesParseOrRaiseUsageErrors)
{
    const std::vector<Args> cliSeeds = {
        {"run", "nin", "--images", "1", "--arch", "dadiannao,cnv",
         "--mem=banked", "--layers", "--report-json", "r.json"},
        {"prune", "--net", "cnnM", "--scale=16", "--floor", "0.99",
         "--jobs", "2"},
        {"trace", "nin", "--max-events", "100", "--trace-out=t.json",
         "--stall-csv", "s.csv", "--progress", "auto", "--stats"},
        {"power", "cnnS", "--weight-sparsity=0.25", "--seed", "3"},
        {"export-traces", "alex", "--out", "dir", "--perf-json", "p"},
        {"reproduce", "--images=1", "--seed", "7", "--mem", "ideal"},
        {"archs", "--ids"},
        {"list"},
    };
    const std::vector<Args> benchSeeds = {
        {"--quick", "--images", "1", "--json=a.json", "--trace-out",
         "t.json", "--mem", "banked", "--jobs=2", "--csv", "--seed", "9"},
        {"--help"},
    };
    for (const Args &seed : cliSeeds)
        ASSERT_NO_THROW(driver::parseCli(seed)) << seed.front();
    for (const Args &seed : benchSeeds)
        ASSERT_NO_THROW(driver::parseBenchArgs(seed, 1, kEveryBenchFlag));

    sim::Rng rng(2016);
    int parsed = 0, rejected = 0;
    auto check = [&](const Args &args, auto &&parse) {
        try {
            parse(args);
            ++parsed;
        } catch (const UsageError &) {
            ++rejected;
        } catch (const std::exception &e) {
            std::string line;
            for (const std::string &a : args)
                line += " '" + a + "'";
            ADD_FAILURE() << "non-usage exception " << e.what() << " for"
                          << line;
        }
    };
    constexpr int kIterations = 3000;
    for (int i = 0; i < kIterations; ++i) {
        Args cli = cliSeeds[rng.uniformInt(cliSeeds.size())];
        Args bench = benchSeeds[rng.uniformInt(benchSeeds.size())];
        const auto mutations = 1 + rng.uniformInt(std::uint64_t{3});
        for (std::uint64_t m = 0; m < mutations; ++m) {
            mutate(cli, rng);
            mutate(bench, rng);
        }
        check(cli, [](const Args &a) { driver::parseCli(a); });
        const Flags &flags =
            kBenchFlagLists[rng.uniformInt(kBenchFlagLists.size())];
        check(bench, [&](const Args &a) {
            driver::parseBenchArgs(a, 1, flags);
        });
    }
    EXPECT_EQ(parsed + rejected, 2 * kIterations);
    // The mutations must exercise both outcomes.
    EXPECT_GT(parsed, kIterations / 10);
    EXPECT_GT(rejected, kIterations / 10);
}

} // namespace
