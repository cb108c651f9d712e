/**
 * @file
 * The oracle-matrix and speculative-matrix workloads: every registered
 * family × the six built-in techniques through ExperimentRunner, in
 * alternating passes at jobs=1 and jobs=N with a fresh runner (fresh
 * caches) per pass, for the run's time budget.
 */

#include <mutex>

#include "layers.hh"
#include "matrix.hh"
#include "sim/report.hh"
#include "sim/technique.hh"
#include "workloads/family.hh"
#include "workloads/workloads.hh"

namespace siqb
{

using namespace siq;

namespace
{

/** The seed the recorded pin digest is taken at. */
constexpr std::uint64_t kPinSeed = 1;

struct Pass
{
    double wall = 0.0;
    std::uint64_t insts = 0;
    std::vector<double> cellLatency; ///< jobs=1 passes only
    sim::SweepResult result;
};

Pass
runPass(const sim::SweepSpec &spec, int jobs)
{
    Pass p;
    std::mutex mu;
    std::vector<double> doneAt;
    sim::CellHooks hooks;
    hooks.onCellDone = [&](std::size_t, const sim::CellKey &,
                           const sim::RunResult &,
                           const sim::CellAggregate *) {
        const double t = now();
        std::lock_guard lock(mu);
        doneAt.push_back(t);
    };
    sim::SweepSpec s = spec;
    s.jobs = jobs;
    const double t0 = now();
    {
        sim::ExperimentRunner runner(jobs);
        p.result = runner.run(s, hooks);
    }
    p.wall = now() - t0;
    for (const sim::RunResult &r : p.result.cells)
        p.insts += spec.base.warmupInsts + r.stats.committed;
    if (jobs == 1) {
        double prev = t0;
        for (const double t : doneAt) {
            p.cellLatency.push_back(t - prev);
            prev = t;
        }
    }
    return p;
}

/** Generate and annotate every distinct program of the grid once. */
double
setupOnce(const sim::SweepSpec &spec)
{
    const double t0 = now();
    for (const std::string &b : spec.benchmarks) {
        const Program prog = workloads::generate(b, spec.base.workload);
        for (const std::string &name : spec.techniques) {
            const sim::TechniqueDef *def = sim::findTechnique(name);
            sim::RunConfig cfg = spec.base;
            applyTechniqueTag(*def, cfg);
            if (!def->compilerConfig)
                continue;
            if (const auto cc = def->compilerConfig(cfg)) {
                Program annotated = prog;
                compiler::annotate(annotated, *cc);
            }
        }
    }
    return now() - t0;
}

std::vector<double>
rates(const std::vector<Pass> &passes, bool insts)
{
    std::vector<double> v;
    for (const Pass &p : passes) {
        const double work = insts ? static_cast<double>(p.insts) / 1e6
                                  : static_cast<double>(p.result.cells.size());
        v.push_back(work / p.wall);
    }
    return v;
}

} // namespace

sim::SweepSpec
matrixSpec(std::uint64_t seed, bool speculative, bool tiny)
{
    sim::SweepSpec spec;
    spec.benchmarks = workloads::familyNames();
    spec.techniques = builtinTechniques();
    spec.base.workload.seed = sim::ExperimentRunner::mixSeed(seed, 1, 0);
    spec.base.warmupInsts = tiny ? 1000 : 20000;
    spec.base.measureInsts = tiny ? 4000 : 80000;
    spec.base.core.specFrontEnd = speculative;
    spec.seeds = 1;
    return spec;
}

void
runMatrix(const Options &opts, bool speculative, Report &report,
          Tracer &tracer)
{
    const int n = parallelism();

    // correctness gate 1: the pinned tiny grid's digest
    {
        sim::ExperimentRunner runner(n);
        report.checkDigest(opts.pinsPath, "pin",
                           hex(fnv1a64(canonicalExport(runner.run(
                               matrixSpec(kPinSeed, speculative, true))))),
                           1);
    }

    const sim::SweepSpec spec = matrixSpec(opts.seed, speculative, opts.tiny);
    const std::size_t ncells =
        spec.benchmarks.size() * spec.techniques.size();

    // set-up: every distinct program generated and annotated, median
    // of several repetitions
    std::vector<double> setups;
    for (int i = 0; i < (opts.tiny ? 1 : 5); i++)
        setups.push_back(setupOnce(spec));

    // timed passes; the trace run halves them to leave room for the
    // traced grids
    const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
    const double deadline = now() + budget;
    std::vector<Pass> serial, par;
    std::string refExport;
    sim::SweepResult ref;
    do {
        for (const int jobs : {1, n}) {
            Pass p = runPass(spec, jobs);
            report.attempted += ncells;
            const std::string text = canonicalExport(p.result);
            if (refExport.empty()) {
                refExport = text;
                ref = p.result;
            } else if (text != refExport) {
                std::uint64_t bad = 0;
                for (std::size_t i = 0; i < ncells; i++) {
                    if (!sim::identicalMeasurement(p.result.cells[i],
                                                   ref.cells[i]))
                        bad++;
                }
                report.fail(bad ? bad : ncells,
                            "jobs=" + std::to_string(jobs) +
                                " export differs from the first pass");
            }
            (jobs == 1 ? serial : par).push_back(std::move(p));
        }
    } while (now() < deadline);

    // correctness gate 2: the timed export's digest, when recorded
    report.checkDigest(opts.tiny ? "" : opts.pinsPath,
                       "seed-" + std::to_string(opts.seed),
                       hex(fnv1a64(refExport)), ncells);

    // latency quantiles per pass, median over passes: a burst of host
    // noise during one pass moves one sample, not the whole tail
    std::size_t latencySamples = 0;
    auto latency = [&](double q) {
        std::vector<double> v;
        for (const Pass &p : serial)
            v.push_back(quantile(p.cellLatency, q));
        return median(v) * 1e3;
    };
    for (const Pass &p : serial)
        latencySamples += p.cellLatency.size();
    const double cellsPerS = median(rates(serial, false));
    const double cellsPerSPar = median(rates(par, false));
    auto e2e = [&](const char *name, double v, const char *unit) {
        report.e2e.push_back({name, v, unit});
    };
    e2e("setup_s", median(setups), "s");
    e2e("cells_per_s", cellsPerS, "cells/s");
    e2e("cells_per_s_par", cellsPerSPar, "cells/s");
    e2e("sim_minst_per_s", median(rates(serial, true)), "Minst/s");
    e2e("latency_p50_ms", latency(0.50), "ms");
    e2e("latency_p95_ms", latency(0.95), "ms");
    e2e("peak_rss_mib", peakRssMib(), "MiB");
    {
        const std::vector<double> r = rates(serial, false);
        report.detail.push_back(
            {"cells_per_s.within_run_spread",
             (quantile(r, 0.75) - quantile(r, 0.25)) / median(r),
             "fraction"});
    }
    report.detail.push_back(
        {"passes_jobs1", static_cast<double>(serial.size()), "count"});
    report.detail.push_back(
        {"passes_jobsN", static_cast<double>(par.size()), "count"});
    report.detail.push_back(
        {"latency_samples", static_cast<double>(latencySamples), "count"});

    if (opts.trace) {
        // correctness gate 3 (inside traceLayers): the traced serial
        // grid reproduces the engine's cells and export exactly
        traceSpecParse(spec, tracer, 20);
        std::vector<double> walls;
        for (const Pass &p : serial)
            walls.push_back(p.wall);
        const LayerRun layer =
            traceLayers(report, tracer, spec, ref, median(walls),
                        cellsPerSPar / (n * cellsPerS), ref.cache);

        // end-to-end metrics from the traced grid: the difference to
        // the untraced values above is the tracing overhead
        const std::vector<double> cellSecs = tracer.durations("sim.cell");
        report.addTraced({
            {"setup_s", tracer.total("workloads.generate") +
                            tracer.total("compiler.annotate")},
            {"cells_per_s",
             static_cast<double>(ncells) / layer.wallSeconds},
            {"sim_minst_per_s",
             static_cast<double>(layer.warmupInsts + layer.measureInsts) /
                 1e6 / layer.wallSeconds},
            {"latency_p50_ms", quantile(cellSecs, 0.50) * 1e3},
            {"latency_p95_ms", quantile(cellSecs, 0.95) * 1e3},
        });
    }
}

} // namespace siqb
