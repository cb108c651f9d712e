#include "sim/simulator.hh"

#include <chrono>
#include <memory>

#include "common/logging.hh"
#include "sim/technique.hh"

namespace siq::sim
{

RunResult
simulateProgram(const Program &prog, const TechniqueDef &def,
                const RunConfig &cfg)
{
    RunResult result;
    result.technique = def.name;
    result.benchmark = prog.name;

    std::unique_ptr<IqLimitController> controller;
    if (def.controller)
        controller = def.controller(cfg);

    // one Core construction per replica pays for all the tick loop's
    // arenas; warm-up and measurement then run allocation-free
    // (DESIGN.md §9) — resetStats() clears counters, not state
    Core core(prog, cfg.core, controller.get());
    if (cfg.warmupInsts > 0)
        core.run(cfg.warmupInsts);
    core.resetStats();
    core.run(cfg.measureInsts);

    result.stats = core.stats();
    result.iq = core.iqEvents();
    return result;
}

RunResult
runOne(const std::string &benchmark, const std::string &technique,
       const RunConfig &cfg)
{
    const TechniqueDef *def = findTechnique(technique);
    if (def == nullptr)
        fatal("unknown technique: ", technique);

    const auto g0 = std::chrono::steady_clock::now();
    Program prog = workloads::generate(benchmark, cfg.workload);
    const double generateSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - g0)
            .count();

    compiler::CompileStats compileStats;
    if (def->compilerConfig) {
        if (const auto cc = def->compilerConfig(cfg))
            compileStats = compiler::annotate(prog, *cc);
    }

    RunResult result = simulateProgram(prog, *def, cfg);
    result.benchmark = benchmark;
    result.generateSeconds = generateSeconds;
    result.compile = compileStats;
    result.compileSeconds = compileStats.seconds;
    return result;
}

PowerComparison
comparePower(const RunResult &baseline, const RunResult &technique,
             const power::IqPowerParams &iqParams,
             const power::RfPowerParams &rfParams)
{
    using power::IqMode;

    PowerComparison cmp;
    const auto iqBase =
        power::iqPower(baseline.iq, iqParams, IqMode::Conventional);
    const auto iqNonEmpty =
        power::iqPower(baseline.iq, iqParams, IqMode::NonEmptyGated);
    const auto iqTech =
        power::iqPower(technique.iq, iqParams, IqMode::Resized);

    cmp.nonEmptySaving = power::saving(iqBase.dynamicPower(),
                                       iqNonEmpty.dynamicPower());
    cmp.iqDynamicSaving =
        power::saving(iqBase.dynamicPower(), iqTech.dynamicPower());
    cmp.iqStaticSaving =
        power::saving(iqBase.staticPower(), iqTech.staticPower());

    const auto rfBase = power::rfPower(
        power::intRfEvents(baseline.stats), rfParams, false);
    const auto rfTech = power::rfPower(
        power::intRfEvents(technique.stats), rfParams, true);
    cmp.rfDynamicSaving =
        power::saving(rfBase.dynamicPower(), rfTech.dynamicPower());
    cmp.rfStaticSaving =
        power::saving(rfBase.staticPower(), rfTech.staticPower());
    return cmp;
}

} // namespace siq::sim
