/**
 * @file
 * The command-line option table of cnvsim and the bench binaries: one
 * Option row per flag, one parser that throws UsageError (it never
 * exits), and usage text generated from the rows. The experiment
 * knobs (--images, --seed, --scale, --weight-sparsity, --mem) write
 * straight into a driver::ExperimentConfig. Each cnvsim command and
 * each bench accepts only the rows it reads.
 */

#ifndef CNV_DRIVER_OPTIONS_H
#define CNV_DRIVER_OPTIONS_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "driver/driver.h"
#include "mem/memory_model.h"
#include "sim/error.h"
#include "sim/metrics.h"
#include "sim/trace_event.h"

namespace cnv::driver {

/** A malformed command line. The front ends print it and exit 2. */
class UsageError : public sim::FatalError
{
  public:
    UsageError(const std::string &msg, bool showUsage)
        : sim::FatalError(msg), showUsage_(showUsage)
    {}

    /** Whether the usage text follows (not for a bad value). */
    bool showUsage() const { return showUsage_; }

  private:
    bool showUsage_;
};

/** A numeric row: the whole value must be one T in [lo, hi]. */
template <typename T>
struct Number
{
    T *field;
    T lo;
    T hi = std::numeric_limits<T>::max();
};

/** An output-path row: any value but the empty string. */
struct OutputPath
{
    std::string *field;
};

/** One flag. The target's alternative is the row kind: integer,
 *  unsigned, number, output path, free string, switch (`bool *`,
 *  takes no value), or the --mem / --progress choice. */
struct Option
{
    std::string_view name;
    std::string_view metavar; ///< empty for a switch
    std::variant<Number<int>, Number<std::uint64_t>, Number<double>,
                 OutputPath, std::string *, bool *, mem::Kind *,
                 sim::MetricsRegistry::Progress *>
        target;
};

/** Parse `args` ("--flag value" or "--flag=value") into `table`'s
 *  fields; throws UsageError on malformed input, including a row not
 *  named in `accepted` ("not supported by `scope`"). */
void parseOptions(std::span<const Option> table,
                  std::span<const std::string_view> accepted,
                  std::span<const std::string> args, std::string_view scope);

/** A parsed cnvsim command line. */
struct CliOptions
{
    std::string command;
    std::string net; ///< positional or --net; empty for reproduce
    ExperimentConfig experiment;
    std::string archs = "dadiannao,cnv";
    bool ids = false;
    bool stats = false;
    bool layers = false;
    double floor = 1.0;
    std::string out = "traces";
    std::string reportJson;
    std::string reportCsv;
    std::string traceOut;
    std::string stallCsv;
    std::uint64_t maxEvents = sim::TraceSink::kDefaultMaxEvents;
    int jobs = 0; ///< 0 = keep the process default
    std::string perfJson;
    sim::MetricsRegistry::Progress progress =
        sim::MetricsRegistry::Progress::Off;
};

/** One cnvsim command and the flags it reads, in usage order. */
struct CliCommand
{
    std::string_view name;
    std::vector<std::string_view> flags;

    /** A command reading --net takes a network, positionally too. */
    bool
    takesNetwork() const
    {
        return std::ranges::find(flags, "--net") != flags.end();
    }
};

/** The cnvsim commands, in usage order. */
const std::vector<CliCommand> &cliCommands();

/** The rows of every cnvsim flag, writing into `opts`. */
std::vector<Option> cliOptionTable(CliOptions &opts);

/** Parse a cnvsim command line (without the program name); images
 *  defaults to 2. Throws UsageError on malformed input. */
CliOptions parseCli(std::span<const std::string> args);

/** cnvsim's usage text: every command with the flags it accepts. */
std::string cliUsage();

/** A parsed bench command line. */
struct BenchOptions
{
    ExperimentConfig experiment;
    bool csv = false;
    bool quick = false;
    bool help = false;
    std::string json;     ///< figure-data JSON artifact, when non-empty
    std::string traceOut; ///< trace-event JSON, when non-empty
    int jobs = 0;         ///< 0 = keep the process default
};

/** Parse a bench command line (without the program name) of a bench
 *  reading `flags`, its own list in usage order; --help is always
 *  accepted. Throws UsageError. */
BenchOptions parseBenchArgs(std::span<const std::string> args,
                            int defaultImages,
                            std::span<const std::string_view> flags);

/** A bench's usage text: "options: ", `flags` and --help. */
std::string benchUsage(std::span<const std::string_view> flags);

} // namespace cnv::driver

#endif // CNV_DRIVER_OPTIONS_H
