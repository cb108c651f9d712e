/**
 * @file
 * Interface between the core and hardware resizing heuristics (the
 * comparator techniques of the paper: Folegnani&González and
 * Abella&González). The controller observes per-cycle signals and
 * publishes occupancy limits that dispatch honours; the compiler-hint
 * mechanism is separate (it acts through new_head/max_new_range).
 */

#ifndef SIQ_CPU_RESIZE_HH
#define SIQ_CPU_RESIZE_HH

#include <cstdint>

namespace siq
{

/** Per-cycle observations delivered to a resize controller. */
struct ResizeSignals
{
    std::uint64_t cycle = 0;
    int iqValid = 0;
    /** Issues whose entry sat in the youngest bank-worth of slots. */
    int issuedFromYoungestBank = 0;
    /** Dispatch was blocked this cycle by the controller's limit. */
    bool dispatchStalledByLimit = false;
};

/** Hardware IQ/ROB occupancy limiter. */
class IqLimitController
{
  public:
    virtual ~IqLimitController() = default;

    /** Called once per simulated cycle. */
    virtual void tick(const ResizeSignals &signals) = 0;

    /** Max valid IQ entries dispatch may maintain. */
    virtual int iqLimit() const = 0;

    /** Max ROB occupancy dispatch may maintain. */
    virtual int robLimit() const = 0;
};

} // namespace siq

#endif // SIQ_CPU_RESIZE_HH
