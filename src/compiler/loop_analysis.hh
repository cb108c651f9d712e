/**
 * @file
 * Loop analysis (paper §4.3, figure 4).
 *
 * Finds the cyclic dependence sets (CDS) of a loop body's DDG, picks
 * the critical one (greatest latency per iteration, i.e. the maximum
 * cycle ratio latency/distance), and builds the paper's instruction
 * equations: every instruction j issues alongside the anchor
 * instruction of iteration i + k_j. The IQ entry count follows from
 * the program-order span between instruction j of iteration i and the
 * anchor of iteration i + k_j (the paper's 15-entry worked example is
 * a golden test).
 *
 * The value the pass emits for a loop comes from analyzeLoop() alone:
 * the minimal non-degrading range of a pseudo-IQ simulation of the
 * body unrolled a few times. The CDS equations are a diagnostic a
 * caller runs on purpose (compiler_explorer prints them): they can
 * under-provision when side chains are disconnected from the
 * critical cycle, and under-provisioning is the one error direction
 * the technique must avoid (it would slow the program).
 */

#ifndef SIQ_COMPILER_LOOP_ANALYSIS_HH
#define SIQ_COMPILER_LOOP_ANALYSIS_HH

#include <optional>

#include "compiler/pseudo_iq.hh"
#include "ir/ddg.hh"

namespace siq::compiler
{

/** Result of the CDS equation method alone. */
struct CdsAnalysis
{
    int entries = 0;       ///< IQ entries implied by the equations
    double period = 0.0;   ///< cycles per iteration of the critical CDS
    int anchor = -1;       ///< node id of the anchor instruction
    /** Iteration offset k_j per node (paper fig. 4(c)); nodes
     *  unreachable from the anchor hold INT_MIN. */
    std::vector<int> iterationOffset;
};

/**
 * Run the CDS equation method on a loop-body DDG (with distance-1
 * loop-carried edges). Returns nullopt when the body has no cyclic
 * dependence set.
 */
std::optional<CdsAnalysis> analyzeCds(const Ddg &body);

/** Most loop-body copies analyzeLoop() unrolls (and the largest
 *  unrollFactor it accepts). */
constexpr int maxLoopCopies = 24;

/** Loop verdict. */
struct LoopAnalysis
{
    int entries = 0;         ///< final clamped recommendation
    int unrolledEntries = 0; ///< pseudo-IQ estimate over unrollFactor
};

/**
 * Analyze a loop body: the minimal non-degrading range over an
 * unrolled pseudo-IQ simulation (the emitted value, clamped to
 * [1, cfg.iqSize]). @p unrollFactor (in [1, maxLoopCopies]) is the
 * fewest copies simulated. @p slackFraction relaxes the unrolled drain-time
 * match — steady-state throughput is what matters for a loop, and the
 * paper tolerates percent-level loss.
 */
LoopAnalysis analyzeLoop(const Ddg &body, const PseudoIqConfig &cfg,
                         int unrollFactor = 4,
                         double slackFraction = 0.02);

} // namespace siq::compiler

#endif // SIQ_COMPILER_LOOP_ANALYSIS_HH
