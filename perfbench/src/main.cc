/**
 * @file
 * siqbench: the siqsim benchmark binary.
 *
 *   siqbench --workload oracle-matrix|speculative-matrix|serve-mix
 *            --seed N --seconds S --trace 0|1
 *            [--pins FILE] [--spans FILE] [--tiny]
 *   siqbench --emit-specs N --seed N [--tiny]
 *
 * Prints one JSON report (the last line of stdout): end-to-end metrics,
 * per-layer metrics when traced, workload-specific detail, the
 * correctness-gate outcome, digests and the host/build fingerprint.
 * Exits 1 when the correctness gate fails, 2 on a usage error.
 * perfbench/run.py builds this binary and turns the report into the
 * benchmark's result line.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "matrix.hh"
#include "util.hh"

namespace
{

int
usage(const char *msg)
{
    std::fprintf(stderr, "siqbench: %s\n", msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    siqb::Options opts;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--tiny") {
            opts.tiny = true;
        } else if (!hasValue) {
            return usage(("missing value for " + a).c_str());
        } else if (a == "--workload") {
            opts.workload = argv[++i];
        } else if (a == "--seed") {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds") {
            opts.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace") {
            opts.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (a == "--pins") {
            opts.pinsPath = argv[++i];
        } else if (a == "--spans") {
            opts.spansPath = argv[++i];
        } else if (a == "--emit-specs") {
            opts.emitSpecs = std::atoi(argv[++i]);
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (opts.emitSpecs > 0) {
        siqb::emitServeSpecs(opts.seed, opts.emitSpecs, opts.tiny);
        return 0;
    }
    if (!(opts.seconds > 0.0))
        return usage("--seconds must be positive");

    siqb::Report report;
    report.workload = opts.workload;
    report.seed = opts.seed;
    siqb::Tracer tracer(opts.trace);
    try {
        if (opts.workload == "oracle-matrix")
            siqb::runMatrix(opts, false, report, tracer);
        else if (opts.workload == "speculative-matrix")
            siqb::runMatrix(opts, true, report, tracer);
        else if (opts.workload == "serve-mix")
            siqb::runServeMix(opts, report, tracer);
        else
            return usage(("unknown workload '" + opts.workload + "'").c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "siqbench: %s\n", e.what());
        report.attempted = std::max<std::uint64_t>(report.attempted, 1);
        report.fail(1, std::string("exception: ") + e.what());
    }
    report.detail.push_back(
        {"failed_frac",
         report.attempted ? static_cast<double>(report.failed) /
                                static_cast<double>(report.attempted)
                          : 1.0,
         "fraction"});
    if (opts.trace && !opts.spansPath.empty())
        tracer.write(opts.spansPath);
    std::printf("%s\n", report.toJson(opts).c_str());
    return report.failed == 0 ? 0 : 1;
}
