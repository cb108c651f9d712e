/**
 * @file
 * Shared experiment-matrix runner for the figure/table benches, built
 * on the sweep engine (sim/sweep.hh): one ExperimentRunner fans the
 * benchmark × technique matrix out over worker threads, workload
 * programs are synthesized once and shared read-only across cells,
 * and every figure binary can export its matrix machine-readably.
 *
 * Every `SIQSIM_*` environment knob the benches honour — budgets,
 * jobs, seeds, export paths, and the sharding/checkpoint variables
 * that route a figure bench through the same distributed path as the
 * `siqsim` CLI — is documented in one place: docs/ENVIRONMENT.md.
 */

#ifndef SIQ_BENCH_COMMON_HH
#define SIQ_BENCH_COMMON_HH

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "sim/checkpoint.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "sim/technique.hh"
#include "workloads/family.hh"

namespace siq::bench
{

inline std::uint64_t
envOr(const char *name, std::uint64_t fallback)
{
    const char *value = std::getenv(name);
    if (value == nullptr)
        return fallback;
    return std::strtoull(value, nullptr, 10);
}

/** The sweep config every figure bench starts from. */
inline sim::RunConfig
defaultConfig()
{
    sim::RunConfig cfg;
    cfg.warmupInsts = envOr("SIQSIM_WARMUP", 120000);
    cfg.measureInsts = envOr("SIQSIM_MEASURE", 400000);
    return cfg;
}

/**
 * The workload axis every figure bench sweeps, selected by the
 * SIQSIM_WORKLOADS environment knob (docs/ENVIRONMENT.md):
 * unset or "all" = every registered family (the paper's eleven plus
 * the parameterized ones at their defaults), "specint" = the eleven
 * paper benchmarks only, otherwise a comma-separated list of
 * workload specs ("gzip,phased:period=60000"). Entries are validated
 * and canonicalized through the family registry, so a typo fails
 * here with the registered families listed.
 */
inline std::vector<std::string>
suiteBenchmarks()
{
    const char *v = std::getenv("SIQSIM_WORKLOADS");
    const std::string sel = v ? v : "all";
    if (sel == "all")
        return workloads::familyNames();
    if (sel == "specint")
        return workloads::benchmarkNames();
    std::vector<std::string> out;
    std::string cur;
    for (char c : sel + ",") {
        if (c != ',') {
            cur += c;
            continue;
        }
        if (!cur.empty())
            out.push_back(workloads::canonicalWorkload(cur));
        cur.clear();
    }
    if (out.empty())
        fatal("SIQSIM_WORKLOADS is set but names no workloads");
    return out;
}

/** Label of a suite-mean row: the paper's "SPECINT" bar when the
 *  suite is exactly the eleven paper benchmarks, "MEAN" otherwise. */
inline std::string
suiteLabel(const std::vector<std::string> &benches)
{
    return benches == workloads::benchmarkNames() ? "SPECINT" : "MEAN";
}

/** One run per benchmark per technique, shared across figures. */
struct Matrix
{
    std::vector<std::string> benches;
    sim::SweepResult sweep;

    const sim::RunResult &
    at(const std::string &technique, std::size_t benchIdx) const
    {
        return sweep.at(technique, benchIdx);
    }

    /** True when the sweep ran with SIQSIM_SEEDS > 1. */
    bool replicated() const { return !sweep.aggregates.empty(); }

    const sim::CellAggregate &
    aggAt(const std::string &technique, std::size_t benchIdx) const
    {
        return sweep.aggAt(technique, benchIdx);
    }
};

/** Write one export file; @p what names the source (for messages). */
inline void
emitFile(const std::string &path, const char *what,
         const std::function<void(std::ostream &)> &write)
{
    std::ofstream os(path, std::ios::trunc);
    if (os)
        write(os);
    os.flush();
    if (!os)
        fatal("export to '", path, "' (", what, ") failed");
    std::cerr << "  wrote " << path << "\n";
}

/** Honour the SIQSIM_JSON / SIQSIM_CSV / SIQSIM_POWER_CSV exports. */
inline void
exportResults(const sim::SweepResult &sweep)
{
    auto emit = [&](const char *env,
                    const std::function<void(std::ostream &)> &write) {
        const char *path = std::getenv(env);
        if (path != nullptr)
            emitFile(path, env, write);
    };
    emit("SIQSIM_JSON",
         [&](std::ostream &os) { sim::writeJson(os, sweep); });
    emit("SIQSIM_CSV",
         [&](std::ostream &os) { sim::writeCsv(os, sweep); });
    emit("SIQSIM_POWER_CSV",
         [&](std::ostream &os) { sim::writePowerCsv(os, sweep); });
}

/**
 * Run a sweep through a fresh engine and report engine stats.
 *
 * Three env vars route a bench through the distributed path shared
 * with the `siqsim` CLI (docs/ENVIRONMENT.md, DESIGN.md §8):
 *  - SIQSIM_SPEC_OUT dumps the declarative spec as JSON (so the same
 *    grid can be re-run, sharded or archived via `siqsim run`);
 *  - SIQSIM_CKPT runs with per-cell checkpointing and resume in the
 *    given run directory — kill-safe long-horizon runs;
 *  - SIQSIM_SHARD ("i/N", needs SIQSIM_CKPT) runs one shard of the
 *    matrix. While the run directory is still missing cells from
 *    other shards the process exits(0) after its shard — the shard
 *    whose checkpoint completes the matrix prints the figure from
 *    the merged result.
 */
inline sim::SweepResult
runSweep(const sim::SweepSpec &spec)
{
    if (const char *path = std::getenv("SIQSIM_SPEC_OUT")) {
        emitFile(path, "SIQSIM_SPEC_OUT", [&](std::ostream &os) {
            sim::writeSpecJson(os, spec);
        });
    }

    sim::ExperimentRunner runner(
        static_cast<int>(envOr("SIQSIM_JOBS", 0)));
    std::cerr << "  sweep: " << spec.benchmarks.size() << " benchmarks x "
              << spec.techniques.size() << " techniques...\n";

    sim::SweepResult sweep;
    const char *ckpt = std::getenv("SIQSIM_CKPT");
    if (std::getenv("SIQSIM_SHARD") != nullptr && ckpt == nullptr) {
        fatal("SIQSIM_SHARD runs a partial matrix and needs "
              "SIQSIM_CKPT to publish it (docs/ENVIRONMENT.md)");
    }
    if (ckpt != nullptr) {
        sim::ShardPlan shard;
        if (const char *s = std::getenv("SIQSIM_SHARD"))
            shard = sim::parseShard(s);
        const auto outcome =
            sim::runWithCheckpoints(runner, spec, shard, ckpt);
        std::cerr << "  shard " << sim::toString(shard) << ": owns "
                  << outcome.cellsOwned << "/" << outcome.cellsTotal
                  << " cells, resumed " << outcome.cellsResumed
                  << ", simulated " << outcome.cellsRun << "\n";
        if (!outcome.complete) {
            std::cerr << "  run dir '" << ckpt << "' incomplete: run "
                      << "the remaining shards, then re-run (or "
                      << "'siqsim merge')\n";
            std::exit(0);
        }
        sweep = outcome.merged;
        std::cerr << "  " << sweep.cells.size()
                  << " cells assembled from checkpoints in '" << ckpt
                  << "'\n";
    } else {
        sweep = runner.run(spec);
        std::cerr << "  " << sweep.cells.size() << " cells in "
                  << sweep.wallSeconds << "s on " << sweep.jobsUsed
                  << " thread(s); workloads built "
                  << sweep.cache.workloadBuilds << ", cache hits "
                  << sweep.cache.workloadHits << "\n";
    }
    if (sweep.seeds > 1) {
        std::cerr << "  replication: " << sweep.seeds
                  << " decorrelated seeds per cell (mean/ci95 "
                     "aggregated)\n";
    }
    exportResults(sweep);
    return sweep;
}

/** The figure matrix: full suite × the figure's techniques. */
inline Matrix
runMatrix(const std::vector<std::string> &techniques)
{
    sim::SweepSpec spec;
    spec.benchmarks = suiteBenchmarks();
    spec.techniques = techniques;
    spec.base = defaultConfig();

    Matrix m;
    m.benches = spec.benchmarks;
    m.sweep = runSweep(spec);
    return m;
}

/** Arithmetic mean over the suite (the paper's SPECINT bar). */
inline double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0
                          : sum / static_cast<double>(values.size());
}

inline double
ipcLoss(const sim::RunResult &base, const sim::RunResult &tech)
{
    return base.ipc() > 0.0 ? 1.0 - tech.ipc() / base.ipc() : 0.0;
}

inline void
header(const std::string &title, const std::string &paperRef)
{
    std::cout << "==== " << title << " ====\n"
              << "paper reference: " << paperRef << "\n\n";
}

} // namespace siq::bench

#endif // SIQ_BENCH_COMMON_HH
