#include "adaptive/folegnani.hh"

#include <algorithm>

namespace siq
{

FolegnaniResizer::FolegnaniResizer(const FolegnaniConfig &config,
                                   int iqSize_)
    : cfg(config), iqSize(iqSize_), limit(iqSize_)
{}

void
FolegnaniResizer::tick(const ResizeSignals &signals)
{
    youngIssues +=
        static_cast<std::uint64_t>(signals.issuedFromYoungestBank);
    if (++cycleInInterval < cfg.intervalCycles)
        return;

    if (youngIssues <= cfg.contributionThreshold) {
        limit = std::max(cfg.minSize, limit - cfg.portion);
    }
    if (++intervalsSinceExpand >= cfg.expandPeriod) {
        limit = std::min(iqSize, limit + cfg.portion);
        intervalsSinceExpand = 0;
    }
    cycleInInterval = 0;
    youngIssues = 0;
}

} // namespace siq
