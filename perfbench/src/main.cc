/**
 * @file
 * perfbench: runs one benchmark workload and prints its report.
 *
 *   perfbench --workload explore_cold|chip_warm|serve_mix --seed N
 *             --seconds S --trace 0|1 --workdir DIR
 *
 * Human-readable progress, checks and fingerprints go to stdout; the
 * last stdout line is one JSON object {"correct", "attempted",
 * "failed", "metrics"} with the end-to-end metrics (--trace 0) or the
 * per-layer metrics of the traced run (--trace 1). The exit code is 1
 * when any correctness check failed.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.hh"
#include "util/logging.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "explore_cold|chip_warm|serve_mix --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || *end != '\0')
        usage(util::cat(flag, " needs a whole number").c_str());
    return n;
}

RunOptions
parse(int argc, char **argv)
{
    RunOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(util::cat(flag, " needs a value").c_str());
        const std::string value = argv[++i];
        if (flag == "--workload")
            opts.workload = value;
        else if (flag == "--seed")
            opts.seed = parseCount(flag, value);
        else if (flag == "--seconds")
            opts.seconds = static_cast<double>(parseCount(flag, value));
        else if (flag == "--trace")
            opts.trace = parseCount(flag, value) != 0;
        else if (flag == "--workdir")
            opts.workdir = value;
        else
            usage(util::cat("unknown flag ", flag).c_str());
    }
    if (opts.workdir.empty())
        usage("--workdir is required");
    if (opts.seconds < 1.0)
        usage("--seconds must be at least 1");
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    const RunOptions opts = parse(argc, argv);
    std::filesystem::create_directories(opts.workdir);
    std::printf("perfbench %s: seed %llu, %g s, trace %d\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0);

    Report report;
    if (opts.workload == "explore_cold")
        runExploreCold(opts, report);
    else if (opts.workload == "chip_warm")
        runChipWarm(opts, report);
    else if (opts.workload == "serve_mix")
        runServeMix(opts, report);
    else
        usage(util::cat("unknown workload '", opts.workload, "'").c_str());

    std::printf("%s\n", report.json(opts.trace).c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 1;
}
