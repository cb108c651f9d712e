#include "layers.hh"

#include <memory>
#include <optional>

#include "cpu/core.hh"
#include "sim/report.hh"
#include "sim/technique.hh"
#include "workloads/family.hh"
#include "workloads/workloads.hh"

namespace siqb
{

using namespace siq;

namespace
{

/** Run @p spec's grid serially with spans under @p parent. */
LayerRun
runLayerGrid(const sim::SweepSpec &spec, Tracer &tracer, int parent)
{
    LayerRun out;
    sim::SweepResult &res = out.result;
    for (const std::string &b : spec.benchmarks)
        res.benchmarks.push_back(workloads::canonicalWorkload(b));
    res.techniques = spec.techniques;
    const std::size_t nb = res.benchmarks.size();
    res.cells.resize(nb * res.techniques.size());

    const double t0 = now();
    std::vector<std::optional<Program>> programs(nb);
    // technique-major, like the engine's task order at jobs=1
    for (std::size_t t = 0; t < res.techniques.size(); t++) {
        const sim::TechniqueDef *def =
            sim::findTechnique(res.techniques[t]);
        for (std::size_t b = 0; b < nb; b++) {
            const ScopedSpan cellSpan(tracer, "sim.cell", parent);
            sim::RunConfig cfg = spec.base;
            applyTechniqueTag(*def, cfg);
            if (!programs[b]) {
                const ScopedSpan s(tracer, "workloads.generate",
                                   cellSpan.spanId());
                programs[b].emplace(
                    workloads::generate(res.benchmarks[b], cfg.workload));
            }
            const Program *prog = &*programs[b];
            std::optional<Program> annotated;
            sim::RunResult &r = res.cells[t * nb + b];
            if (def->compilerConfig) {
                if (const auto cc = def->compilerConfig(cfg)) {
                    const ScopedSpan s(tracer, "compiler.annotate",
                                       cellSpan.spanId());
                    annotated.emplace(*prog);
                    r.compile = compiler::annotate(*annotated, *cc);
                    prog = &*annotated;
                }
            }
            std::unique_ptr<IqLimitController> ctrl;
            if (def->controller)
                ctrl = def->controller(cfg);

            std::optional<Core> core;
            {
                const ScopedSpan s(tracer, "cpu.construct",
                                   cellSpan.spanId());
                core.emplace(*prog, cfg.core, ctrl.get());
            }
            if (cfg.warmupInsts > 0) {
                const ScopedSpan s(tracer, "cpu.warmup", cellSpan.spanId());
                out.warmupInsts += core->run(cfg.warmupInsts);
            }
            core->resetStats();
            const double m0 = now();
            {
                const ScopedSpan s(tracer, "cpu.measure",
                                   cellSpan.spanId());
                out.measureInsts += core->run(cfg.measureInsts);
            }
            auto &fam = out.perFamily[res.benchmarks[b]];
            fam.first += now() - m0;
            r.benchmark = res.benchmarks[b];
            r.technique = def->name;
            applyTechniqueTag(*def, cfg, &r);
            r.stats = core->stats();
            r.iq = core->iqEvents();
            fam.second += r.stats.committed;
            out.measureCycles += r.stats.cycles;
            MemHierarchy &mem = core->memory();
            out.l1dAccesses += mem.l1d().accesses();
            out.l1dMisses += mem.l1d().misses();
            out.l2Accesses += mem.l2().accesses();
            out.l2Misses += mem.l2().misses();
        }
    }
    out.wallSeconds = now() - t0;
    res.seeds = 1;
    res.jobsUsed = 1;
    return out;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Append the per-layer metrics: module timings from @p tracer, exact
 *  simulated counters from @p layer, and power savings (comparePower
 *  vs baseline, itself under a span). */
void
layerMetrics(Report &report, const LayerRun &layer, Tracer &tracer,
             bool speculative, double otherMeasureS, double sweepSerialS,
             double scalingEff, const sim::SweepCacheStats &cache)
{
    auto add = [&](const std::string &name, double v,
                   const std::string &unit) {
        report.layers.push_back({name, v, unit});
    };
    const double measureS = tracer.total("cpu.measure");
    const double warmupS = tracer.total("cpu.warmup");
    add("workloads.generate_ms",
        median(tracer.durations("workloads.generate")) * 1e3, "ms");
    add("compiler.annotate_ms",
        median(tracer.durations("compiler.annotate")) * 1e3, "ms");
    add("cpu.construct_ms", median(tracer.durations("cpu.construct")) * 1e3,
        "ms");
    add("cpu.warmup_s", warmupS, "s");
    add("cpu.measure_s", measureS, "s");
    add("cpu.ns_per_inst",
        ratio(measureS * 1e9, static_cast<double>(layer.measureInsts)),
        "ns/inst");
    add("cpu.ns_per_cycle",
        ratio(measureS * 1e9, static_cast<double>(layer.measureCycles)),
        "ns/cycle");
    for (const auto &[fam, secInsts] : layer.perFamily) {
        add("cpu.ns_per_inst." + fam,
            ratio(secInsts.first * 1e9,
                  static_cast<double>(secInsts.second)),
            "ns/inst");
    }
    add("cpu.spec_overhead",
        speculative ? ratio(measureS, otherMeasureS)
                    : ratio(otherMeasureS, measureS),
        "ratio");
    const double children =
        tracer.total("workloads.generate") +
        tracer.total("compiler.annotate") + tracer.total("cpu.construct") +
        warmupS + measureS;
    add("sim.sweep.self_s", sweepSerialS - children, "s");
    add("sim.sweep.scaling_eff", scalingEff, "fraction");
    add("sim.sweep.workload_hit_frac",
        ratio(static_cast<double>(cache.workloadHits),
              static_cast<double>(cache.workloadHits +
                                  cache.workloadBuilds)),
        "fraction");
    add("sim.sweep.compile_hit_frac",
        ratio(static_cast<double>(cache.compileHits),
              static_cast<double>(cache.compileHits + cache.compileBuilds)),
        "fraction");
    add("sim.report.export_ms",
        median(tracer.durations("sim.report.export")) * 1e3, "ms");
    add("sim.report.spec_parse_ms",
        median(tracer.durations("sim.report.spec_parse")) * 1e3, "ms");

    // simulated, exact: summed over the grid's cells
    CoreStats s;
    IqEventCounts iq;
    for (const sim::RunResult &r : layer.result.cells) {
#define X(f) s.f += r.stats.f;
        SIQ_CORE_STATS_FIELDS(X)
        SIQ_CORE_SPEC_STATS_FIELDS(X)
#undef X
#define X(f) iq.f += r.iq.f;
        SIQ_IQ_EVENT_FIELDS(X)
#undef X
    }
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double kcycles = d(s.cycles) / 1000.0;
    const double kinsts = d(s.committed) / 1000.0;
    add("cpu.ipc", ratio(d(s.committed), d(s.cycles)), "inst/cycle");
    add("cpu.iq.avg_occupancy", ratio(d(iq.occupancySum), d(iq.cycles)),
        "entries");
    add("cpu.iq.banks_off_frac",
        1.0 - ratio(d(iq.poweredBankCycles), d(iq.totalBankCycles)),
        "fraction");
    add("cpu.iq.cmp_gated_per_broadcast",
        ratio(d(iq.cmpGated), d(iq.broadcasts)), "cmp/broadcast");
    add("cpu.stall.rob_per_kcycle", ratio(d(s.dispatchStallRob), kcycles),
        "1/kcycle");
    add("cpu.stall.iq_full_per_kcycle",
        ratio(d(s.dispatchStallIqFull), kcycles), "1/kcycle");
    add("cpu.stall.range_per_kcycle",
        ratio(d(s.dispatchStallRange), kcycles), "1/kcycle");
    add("cpu.stall.limit_per_kcycle",
        ratio(d(s.dispatchStallLimit), kcycles), "1/kcycle");
    add("cpu.stall.regs_per_kcycle", ratio(d(s.dispatchStallRegs), kcycles),
        "1/kcycle");
    add("cpu.stall.lsq_per_kcycle", ratio(d(s.dispatchStallLsq), kcycles),
        "1/kcycle");
    add("cpu.bpred.mispredicts_per_kinst",
        ratio(d(s.branchMispredicts), kinsts), "1/kinst");
    add("cpu.bpred.useful_fetch_frac",
        ratio(d(s.fetched), d(s.fetched + s.wrongPathFetched)), "fraction");
    add("cpu.squashed_insts_per_kinst", ratio(d(s.squashedInsts), kinsts),
        "1/kinst");
    add("mem.l1d_miss_rate", ratio(d(layer.l1dMisses), d(layer.l1dAccesses)),
        "fraction");
    add("mem.l2_miss_rate", ratio(d(layer.l2Misses), d(layer.l2Accesses)),
        "fraction");

    // power savings vs baseline, mean over the grid's workloads
    const sim::SweepResult &res = layer.result;
    const std::size_t nb = res.benchmarks.size();
    std::size_t base = res.techniques.size();
    for (std::size_t t = 0; t < res.techniques.size(); t++) {
        if (res.techniques[t] == "baseline")
            base = t;
    }
    if (base == res.techniques.size())
        return;
    for (std::size_t t = 0; t < res.techniques.size(); t++) {
        double iqSave = 0.0, rfSave = 0.0;
        for (std::size_t b = 0; b < nb; b++) {
            const ScopedSpan span(tracer, "sim.power.compare");
            const sim::PowerComparison cmp =
                sim::comparePower(res.at(base, b), res.at(t, b));
            iqSave += cmp.iqDynamicSaving;
            rfSave += cmp.rfDynamicSaving;
        }
        add("power.iq_dyn_saving_pct." + res.techniques[t],
            100.0 * ratio(iqSave, d(nb)), "%");
        add("power.rf_dyn_saving_pct." + res.techniques[t],
            100.0 * ratio(rfSave, d(nb)), "%");
    }
    report.detail.push_back(
        {"sim.power.compare_us",
         median(tracer.durations("sim.power.compare")) * 1e6, "us"});
}

} // namespace

void
traceSpecParse(const sim::SweepSpec &spec, Tracer &tracer, int reps)
{
    const std::string text = sim::toJson(spec);
    for (int i = 0; i < reps; i++) {
        const ScopedSpan s(tracer, "sim.report.spec_parse");
        sim::tryReadSpecJson(text);
    }
}

LayerRun
traceLayers(Report &report, Tracer &tracer, const sim::SweepSpec &spec,
            const sim::SweepResult &ref, double sweepSerialS,
            double scalingEff, const sim::SweepCacheStats &cache)
{
    LayerRun layer;
    {
        const ScopedSpan root(tracer, "sim.layer_grid");
        layer = runLayerGrid(spec, tracer, root.spanId());
    }
    for (std::size_t i = 0; i < ref.cells.size(); i++) {
        if (!sim::identicalMeasurement(layer.result.cells[i], ref.cells[i]))
            report.fail(1, "traced cell " + std::to_string(i) +
                               " differs from the engine's");
    }
    const std::string refExport = canonicalExport(ref);
    for (int i = 0; i < 3; i++) {
        const ScopedSpan s(tracer, "sim.report.export");
        if (canonicalExport(layer.result) != refExport && i == 0)
            report.fail(1, "traced export differs from the engine's");
    }

    Tracer other(true);
    sim::SweepSpec otherSpec = spec;
    otherSpec.base.core.specFrontEnd = !spec.base.core.specFrontEnd;
    runLayerGrid(otherSpec, other, -1);
    layerMetrics(report, layer, tracer, spec.base.core.specFrontEnd,
                 other.total("cpu.measure"), sweepSerialS, scalingEff,
                 cache);
    return layer;
}

} // namespace siqb
