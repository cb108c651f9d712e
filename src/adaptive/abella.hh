/**
 * @file
 * Abella & González power-aware adaptive issue queue and reorder
 * buffer ("IqRob64", HiPC 2003 / UPC-DAC-2002-31) — the paper's main
 * hardware comparator ("abella").
 *
 * Reconstruction note: the HPCA paper cites but does not reproduce the
 * exact heuristic tables, and the original report is not distributed
 * with this repository. This implementation follows the published
 * family: interval-based monitoring of occupancy and of the
 * performance pressure caused by the current limit, joint IQ+ROB
 * resizing at bank granularity, and a 64-entry ROB floor (the "64" in
 * IqRob64). Thresholds are calibrated so the baseline machine lands at
 * the operating point the paper reports for abella (~3% IPC loss with
 * ~39%/30% dynamic/static IQ savings); EXPERIMENTS.md records the
 * calibration.
 */

#ifndef SIQ_ADAPTIVE_ABELLA_HH
#define SIQ_ADAPTIVE_ABELLA_HH

#include <cstdint>

#include "cpu/iq.hh"
#include "cpu/resize.hh"

namespace siq
{

/** Tuning knobs for the Abella&González-style resizer; the IQ
 *  resizes one bank (IqConfig::bankSize) at a time. */
struct AbellaConfig
{
    int minIq = 16;
    int robFloor = 64;    ///< the "64" in IqRob64
    std::uint64_t intervalCycles = 16384;
    /**
     * Shrink when the interval's average occupancy leaves at least
     * this many spare banks under the current limit. Averages react
     * slowly to phase changes — the "inevitable delay in sensing"
     * the paper holds against hardware-only adaptation.
     */
    int slackPortions = 1;
    /** Grow when limit-induced dispatch stalls exceed this fraction. */
    double stallFractionToGrow = 0.05;
};

/** Joint IQ/ROB occupancy limiter. */
class AbellaResizer : public IqLimitController
{
  public:
    /** @p iq and @p robSize are the machine's (CoreConfig): the
     *  limits start at its sizes and never grow past them, and the
     *  IQ limit moves in steps of its bank. */
    AbellaResizer(const AbellaConfig &config, const IqConfig &iq,
                  int robSize);

    void tick(const ResizeSignals &signals) override;
    int iqLimit() const override { return limit; }
    int robLimit() const override;

  private:
    AbellaConfig cfg;
    IqConfig iq;
    int robSize;
    int limit;
    std::uint64_t cycleInInterval = 0;
    std::uint64_t occupancySum = 0;
    std::uint64_t limitStallCycles = 0;
};

} // namespace siq

#endif // SIQ_ADAPTIVE_ABELLA_HH
