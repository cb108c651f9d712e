/**
 * @file
 * The traced layer run: a grid executed serially by the benchmark
 * itself, making per cell the same public calls the sweep engine makes
 * (workloads::generate once per program, compiler::annotate once per
 * annotation, then the Core constructor, Core::run over the warm-up,
 * resetStats, Core::run over the measured budget), with a span around
 * each call. Its cells must be identicalMeasurement to the engine's,
 * and its canonical export byte-identical, which the caller checks.
 */

#ifndef SIQB_LAYERS_HH
#define SIQB_LAYERS_HH

#include <map>
#include <string>
#include <vector>

#include "sim/sweep.hh"
#include "util.hh"

namespace siqb
{

/** What the traced grid measured, beyond its spans. */
struct LayerRun
{
    /** Same shape and order as the engine's SweepResult. */
    siq::sim::SweepResult result;
    /** Instructions committed by the warm-up and measured runs. */
    std::uint64_t warmupInsts = 0;
    std::uint64_t measureInsts = 0;
    std::uint64_t measureCycles = 0;
    /** Measured-region seconds and instructions per family. */
    std::map<std::string, std::pair<double, std::uint64_t>> perFamily;
    /** L1D / L2 accesses and misses over the measured regions. */
    std::uint64_t l1dAccesses = 0, l1dMisses = 0;
    std::uint64_t l2Accesses = 0, l2Misses = 0;
    /** Serial wall seconds of the whole grid. */
    double wallSeconds = 0.0;
};

/**
 * Give a cell's config (and, when given, its result) the technique
 * family tag the sweep engine sets before calling a technique's
 * factories. The tag is the sim::Technique enum, which is slated for
 * deletion, so this compiles to nothing once those members are gone.
 */
template <class Def, class Cfg, class Res = int>
void
applyTechniqueTag(const Def &def, Cfg &cfg, Res *result = nullptr)
{
    if constexpr (requires { cfg.tech = def.tag; })
        cfg.tech = def.tag;
    if constexpr (requires { result->tech = def.tag; }) {
        if (result != nullptr)
            result->tech = def.tag;
    }
}

/**
 * The traced layer run of @p spec. Runs the grid serially with spans,
 * fails @p report's gate unless its cells and canonical export match
 * the engine's @p ref, runs the grid in the other front-end mode for
 * cpu.spec_overhead, and appends every per-layer metric BENCHMARK.json
 * lists. @p sweepSerialS is the untraced jobs=1 wall of the same grid
 * (for sim.sweep.self_s); @p cache the engine's cache counters.
 */
LayerRun traceLayers(Report &report, Tracer &tracer,
                     const siq::sim::SweepSpec &spec,
                     const siq::sim::SweepResult &ref, double sweepSerialS,
                     double scalingEff,
                     const siq::sim::SweepCacheStats &cache);

/** Parse @p spec's JSON with tryReadSpecJson @p reps times, each under
 *  a sim.report.spec_parse span. */
void traceSpecParse(const siq::sim::SweepSpec &spec, Tracer &tracer,
                    int reps);

} // namespace siqb

#endif // SIQB_LAYERS_HH
