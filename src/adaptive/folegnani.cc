#include "adaptive/folegnani.hh"

#include <algorithm>

namespace siq
{

FolegnaniResizer::FolegnaniResizer(const FolegnaniConfig &config,
                                   const IqConfig &iq_)
    : cfg(config), iq(iq_), limit(iq_.numEntries)
{}

void
FolegnaniResizer::tick(const ResizeSignals &signals)
{
    youngIssues +=
        static_cast<std::uint64_t>(signals.issuedFromYoungestBank);
    if (++cycleInInterval < cfg.intervalCycles)
        return;

    if (youngIssues <= cfg.contributionThreshold) {
        limit = std::max(cfg.minSize, limit - iq.bankSize);
    }
    if (++intervalsSinceExpand >= cfg.expandPeriod) {
        limit = std::min(iq.numEntries, limit + iq.bankSize);
        intervalsSinceExpand = 0;
    }
    cycleInInterval = 0;
    youngIssues = 0;
}

} // namespace siq
