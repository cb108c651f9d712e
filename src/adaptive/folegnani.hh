/**
 * @file
 * Folegnani & González adaptive issue queue resizing (ISCA 2001,
 * "Energy-effective issue logic") as a hardware comparator.
 *
 * Their heuristic: the queue is viewed in portions (one bank here);
 * every interval, if the youngest portion contributed almost nothing
 * to the instructions issued, the effective size shrinks by one
 * portion; the size is re-expanded by one portion periodically so the
 * queue can react to new phases. This is the family of "inevitable
 * delay in sensing rapid phase changes" techniques the paper contrasts
 * against.
 */

#ifndef SIQ_ADAPTIVE_FOLEGNANI_HH
#define SIQ_ADAPTIVE_FOLEGNANI_HH

#include <cstdint>

#include "cpu/iq.hh"
#include "cpu/resize.hh"

namespace siq
{

/** Tuning knobs for the Folegnani&González resizer; the portion is
 *  one bank (IqConfig::bankSize). */
struct FolegnaniConfig
{
    int minSize = 16;
    std::uint64_t intervalCycles = 1000;
    /** Shrink when youngest-portion issues fall at/below this. */
    std::uint64_t contributionThreshold = 4;
    /** Grow one portion every this many intervals. */
    int expandPeriod = 4;
};

/** The resizer; limits IQ occupancy only (ROB untouched). */
class FolegnaniResizer : public IqLimitController
{
  public:
    /** @p iq is the machine's (CoreConfig): the limit starts at its
     *  size, never grows past it and moves in steps of its bank. */
    FolegnaniResizer(const FolegnaniConfig &config, const IqConfig &iq);

    void tick(const ResizeSignals &signals) override;
    int iqLimit() const override { return limit; }
    int robLimit() const override { return 1 << 30; }

  private:
    FolegnaniConfig cfg;
    IqConfig iq;
    int limit;
    std::uint64_t cycleInInterval = 0;
    std::uint64_t youngIssues = 0;
    int intervalsSinceExpand = 0;
};

} // namespace siq

#endif // SIQ_ADAPTIVE_FOLEGNANI_HH
