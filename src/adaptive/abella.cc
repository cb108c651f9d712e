#include "adaptive/abella.hh"

#include <algorithm>

namespace siq
{

AbellaResizer::AbellaResizer(const AbellaConfig &config,
                             const IqConfig &iq_, int robSize_)
    : cfg(config), iq(iq_), robSize(robSize_), limit(iq_.numEntries)
{}

int
AbellaResizer::robLimit() const
{
    // the ROB limit scales with the IQ limit but never drops below
    // the 64-entry floor that names the IqRob64 configuration
    const int scaled = limit * robSize / iq.numEntries;
    return std::max(cfg.robFloor, scaled);
}

void
AbellaResizer::tick(const ResizeSignals &signals)
{
    occupancySum += static_cast<std::uint64_t>(signals.iqValid);
    if (signals.dispatchStalledByLimit)
        limitStallCycles++;
    if (++cycleInInterval < cfg.intervalCycles)
        return;

    const double stallFrac =
        static_cast<double>(limitStallCycles) /
        static_cast<double>(cfg.intervalCycles);
    const auto avgOccupancy = static_cast<int>(
        occupancySum / cfg.intervalCycles);

    if (stallFrac > cfg.stallFractionToGrow) {
        // the limit is hurting: back off
        limit = std::min(iq.numEntries, limit + iq.bankSize);
    } else if (avgOccupancy <= limit - cfg.slackPortions * iq.bankSize) {
        // on average a whole bank sat unused: shrink toward the
        // average plus one bank of headroom (bursts above the
        // average pay the adaptation-lag price)
        const int target = avgOccupancy + iq.bankSize;
        limit = std::max(cfg.minIq,
                         std::max(target, limit - 2 * iq.bankSize));
    }

    cycleInInterval = 0;
    occupancySum = 0;
    limitStallCycles = 0;
}

} // namespace siq
