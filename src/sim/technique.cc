#include "sim/technique.hh"

#include <array>

namespace siq::sim
{

namespace
{

/** Shared machine-mirror setup for every compiler scheme. */
compiler::CompilerConfig
baseCompilerConfig(const RunConfig &cfg)
{
    compiler::CompilerConfig cc;
    cc.machine.issueWidth = cfg.core.issueWidth;
    cc.machine.dispatchWidth = cfg.core.dispatchWidth;
    cc.machine.iqSize = cfg.core.iq.numEntries;
    cc.machine.fuCounts = cfg.core.fuCounts;
    cc.machine.l1dHitLatency = cfg.core.mem.l1d.hitLatency;
    cc.minHint = cfg.minHint;
    cc.elideRedundant = cfg.elideRedundant;
    cc.unrollFactor = cfg.unrollFactor;
    return cc;
}

std::optional<compiler::CompilerConfig>
noopScheme(const RunConfig &cfg)
{
    auto cc = baseCompilerConfig(cfg);
    cc.scheme = compiler::HintScheme::Noop;
    return cc;
}

std::optional<compiler::CompilerConfig>
tagScheme(const RunConfig &cfg)
{
    auto cc = baseCompilerConfig(cfg);
    cc.scheme = compiler::HintScheme::Tag;
    return cc;
}

std::optional<compiler::CompilerConfig>
tagInterprocScheme(const RunConfig &cfg)
{
    auto cc = baseCompilerConfig(cfg);
    cc.scheme = compiler::HintScheme::Tag;
    cc.interprocFu = true;
    return cc;
}

std::unique_ptr<IqLimitController>
abellaResizer(const RunConfig &cfg)
{
    return std::make_unique<AbellaResizer>(cfg.abella, cfg.core.iq,
                                           cfg.core.robSize);
}

std::unique_ptr<IqLimitController>
folegnaniResizer(const RunConfig &cfg)
{
    return std::make_unique<FolegnaniResizer>(cfg.folegnani, cfg.core.iq);
}

/** The table, built on first use (safe from static initializers). */
const std::array<TechniqueDef, 6> &
table()
{
    static const std::array<TechniqueDef, 6> defs = {{
        {"baseline", "fixed 80-entry IQ, no resizing", nullptr, nullptr},
        {"noop", "compiler hints via special NOOPs (paper §5.2)",
         noopScheme, nullptr},
        {"extension", "compiler hints via instruction tags (paper §5.3)",
         tagScheme, nullptr},
        {"improved",
         "Extension + inter-procedural FU analysis (paper §5.3)",
         tagInterprocScheme, nullptr},
        {"abella", "hardware adaptive IqRob64 comparator", nullptr,
         abellaResizer},
        {"folegnani", "hardware adaptive resizer (ablation A4)", nullptr,
         folegnaniResizer},
    }};
    return defs;
}

} // namespace

const TechniqueDef *
findTechnique(const std::string &name)
{
    for (const TechniqueDef &def : table()) {
        if (def.name == name)
            return &def;
    }
    return nullptr;
}

std::vector<std::string>
techniqueNames()
{
    std::vector<std::string> out;
    for (const TechniqueDef &def : table())
        out.push_back(def.name);
    return out;
}

} // namespace siq::sim
