/**
 * @file
 * The compiler's pseudo issue queue (paper §4.2, figure 3).
 *
 * "In the compiler we maintain a structure similar to the processor's
 * issue queue. We place the first few instructions in this pseudo
 * issue queue and then iterate over it several times, removing
 * instructions that are able to issue, recording their writeback
 * times and placing new ones at the tail."
 *
 * The simulation dispatches in program order (dispatchWidth per
 * cycle), issues oldest-first up to the issue width subject to
 * functional-unit availability (the paper's resource-contention
 * "additional edge in the DDG" is modelled directly as the per-cycle
 * FU limit — same effect, simpler bookkeeping), and can enforce the
 * hardware's max_new_range constraint: dispatch stalls while the
 * distance from the oldest unissued instruction (= new_head, which
 * advances over issued holes) to the dispatch point reaches the
 * range.
 *
 * Two region-size estimators are built on it:
 *  - the per-cycle span oldest-unissued..youngest-issuing, the
 *    counting procedure of the paper's figure 3;
 *  - PseudoIqSequence::minimalRange(): the smallest max_new_range whose constrained
 *    drain time equals the drain time at the full queue — the
 *    paper's stated objective ("reduces the number of instructions
 *    in the queue without delaying the critical path") made
 *    operational. It binary-searches the range over one dependence
 *    graph built per sequence (PseudoIqSequence), and accepts without
 *    a drain every probe the reference drain already answers.
 * Both reproduce the worked examples of the paper (figures 1 and 3).
 */

#ifndef SIQ_COMPILER_PSEUDO_IQ_HH
#define SIQ_COMPILER_PSEUDO_IQ_HH

#include <array>
#include <limits>
#include <vector>

#include "ir/ddg.hh"
#include "isa/opcode.hh"

namespace siq::compiler
{

constexpr int numFuClasses = static_cast<int>(FuClass::NumClasses);

/** Machine parameters mirrored by the compiler (Table 1 defaults). */
struct PseudoIqConfig
{
    int issueWidth = 8;
    /** Instructions entering the pseudo queue per cycle ("placing new
     *  ones at the tail" — paper §4.2). */
    int dispatchWidth = 8;
    int iqSize = 80;
    /** Units per FU class, indexed by FuClass. */
    std::array<int, numFuClasses> fuCounts = {
        1 << 20, // None: unconstrained
        6,       // IntAlu
        3,       // IntMul
        4,       // FpAlu
        2,       // FpMulDiv
        2,       // MemPort
    };
    /** Loads are assumed to hit (paper §4.2); this is their latency. */
    int l1dHitLatency = 2;
};

/** One instruction as the pseudo IQ sees it. */
struct PseudoInst
{
    int latency = 1;
    FuClass fu = FuClass::IntAlu;
    /** Non-pipelined ops hold their unit for the full latency. */
    bool pipelined = true;
    /** Earliest issue cycle due to operands produced outside the
     *  analysed sequence (conservative join over CFG predecessors). */
    int externalReady = 0;
};

/** A dependence: @c to may issue no earlier than @c from's writeback. */
struct PseudoDep
{
    int from = -1;
    int to = -1;
};

/** Outcome of draining one sequence through the pseudo IQ. */
struct PseudoIqResult
{
    /** Max per-cycle span oldest-unissued..youngest-issuing (the
     *  paper's figure-3 counting procedure). */
    int entriesNeeded = 0;
    /** First cycle after the last issue. */
    int drainCycles = 0;
    /** Widest dispatch window used: the largest
     *  nextDispatch - oldestUnissued + 1 at which a dispatch
     *  succeeded. Any range limit at or above it (and at or below
     *  the one drained) repeats this drain exactly. */
    int widestWindow = 0;
    /** Issue cycle per instruction. */
    std::vector<int> issueCycle;
};

constexpr int unboundedRange = std::numeric_limits<int>::max();

/** PseudoIqSequence::minimalRange()'s answer together with the
 *  reference drain (range cfg.iqSize) it was measured against. */
struct RangeSearch
{
    int range = 1;
    PseudoIqResult reference;
};

/**
 * One sequence prepared for repeated drains: the dependence graph is
 * built once, in CSR form (child offsets and indices plus parent
 * counts), and every drain reuses it and the sequence's scratch
 * buffers, so a probe of the range search allocates nothing. Each
 * cycle's issue scan walks only the dispatched, unissued entries (a
 * list in program order), not the issued holes between them.
 */
class PseudoIqSequence
{
  public:
    /**
     * @param insts the linearized sequence, program order
     * @param deps intra-sequence dependences (must be acyclic)
     * @param cfg machine parameters
     * @param fuBusyUntil per-class cycle before which no unit is free
     *                    (used by the Improved scheme to model a
     *                    callee's in-flight work at region entry)
     */
    PseudoIqSequence(std::vector<PseudoInst> insts,
                     const std::vector<PseudoDep> &deps,
                     const PseudoIqConfig &cfg,
                     const std::array<int, numFuClasses> &fuBusyUntil =
                         {});

    const std::vector<PseudoInst> &insts() const { return insts_; }

    /** Drain with max_new_range @p rangeLimit enforced on dispatch
     *  (unboundedRange = off) into @p out, reusing its storage. */
    void drain(int rangeLimit, PseudoIqResult &out);

    /**
     * The smallest max_new_range (in [1, cfg.iqSize]) that drains the
     * sequence no more than slack cycles slower than range cfg.iqSize
     * does, plus that reference drain. The slack is the reference's
     * drainCycles × @p slackFraction, truncated (0 = exactly as
     * fast).
     *
     * A binary search over [1, cfg.iqSize]. A probe at or above the
     * reference's widestWindow makes the reference's dispatch
     * decisions, so it is accepted without a drain; every other probe
     * drains (DESIGN.md §4.1 gives the argument).
     *
     * With @p strict, additionally require that no instruction issues
     * later than it would unconstrained. The drain criterion cannot
     * see two cross-region costs: a delayed divide keeps its unit
     * busy into the next region, and a delayed tail instruction (a
     * callee's return value) stalls the consumer region. The Improved
     * scheme applies the strict criterion to code reached across
     * call boundaries (paper §5.3).
     */
    RangeSearch minimalRange(double slackFraction = 0.0,
                             bool strict = false);

  private:
    std::vector<PseudoInst> insts_;
    PseudoIqConfig cfg_;
    std::array<int, numFuClasses> fuBusyUntil_;
    /** Children of i are childIndex_[childBegin_[i] ..
     *  childBegin_[i + 1]), in dependence order. */
    std::vector<int> childBegin_;
    std::vector<int> childIndex_;
    std::vector<int> parentCount_;

    // per-drain scratch
    std::vector<int> readyAt_;
    std::vector<int> pendingParents_;
    std::vector<int> nextWaiting_;
    std::array<std::vector<int>, numFuClasses> unitFreeAt_;
    PseudoIqResult probe_;
};

/** Drain @p insts once (see PseudoIqSequence). */
PseudoIqResult simulatePseudoIq(
    const std::vector<PseudoInst> &insts,
    const std::vector<PseudoDep> &deps,
    const PseudoIqConfig &cfg,
    const std::array<int, numFuClasses> &fuBusyUntil = {},
    int rangeLimit = unboundedRange);

/** Map an instruction to its pseudo-IQ view under @p cfg. */
PseudoInst toPseudoInst(const StaticInst &si, const PseudoIqConfig &cfg);

/**
 * Expand a loop-body DDG into @p copies back-to-back iterations.
 * Distance-d edges connect copy u to copy u+d. Returns the expanded
 * instruction list and dependence set for a PseudoIqSequence.
 */
void expandLoopDdg(const Ddg &body, int copies,
                   const PseudoIqConfig &cfg,
                   std::vector<PseudoInst> &insts,
                   std::vector<PseudoDep> &deps);

} // namespace siq::compiler

#endif // SIQ_COMPILER_PSEUDO_IQ_HH
