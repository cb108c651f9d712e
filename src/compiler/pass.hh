/**
 * @file
 * The full compilation pass of the paper (figure 5):
 *
 *   find natural loops; find DAGs; build DDGs; per basic block run the
 *   pseudo issue queue to find the IQ entries needed; per loop find
 *   the cyclic dependence sets and solve the instruction equations;
 *   encode each region's requirement in a special NOOP (or, for the
 *   Extension/Improved schemes, a tag on an ordinary instruction).
 *
 * Here a loop is sized by draining its body, unrolled, through the
 * pseudo issue queue (analyzeLoop); the CDS equations are a diagnostic
 * that is run on request (analyzeCds, loop_analysis.hh).
 *
 * Region rules implemented here (paper §4.1-4.4):
 *  - every basic block outside any loop is its own region and gets a
 *    hint at its start;
 *  - a loop (innermost loops whole; outer loops through the blocks
 *    only they contain) is one region; its hint is placed on the
 *    loop-entry edges, i.e. at the end of each predecessor of the
 *    header that lies outside the loop, so the hint executes once per
 *    loop entry rather than once per iteration;
 *  - procedure entry blocks always get a hint (the callee cannot rely
 *    on the caller's range);
 *  - call-continuation blocks always get a hint (the callee's hints
 *    invalidated the caller's range — §4.4 "on returning from a
 *    function call, we restart analysing the IQ requirements");
 *  - calls to library procedures get a maximal hint immediately
 *    before the call (§4.4).
 */

#ifndef SIQ_COMPILER_PASS_HH
#define SIQ_COMPILER_PASS_HH

#include <cstddef>
#include <vector>

#include "compiler/loop_analysis.hh"
#include "compiler/pseudo_iq.hh"
#include "ir/cfg.hh"
#include "ir/program.hh"

namespace siq::compiler
{

/** How resize values travel to the processor. */
enum class HintScheme
{
    Noop, ///< special NOOPs inserted into the stream (paper §5.2)
    Tag,  ///< redundant bits on ordinary instructions (§5.3 Extension)
};

/** Pass configuration; Improved = Tag + interprocFu. */
struct CompilerConfig
{
    PseudoIqConfig machine;
    HintScheme scheme = HintScheme::Noop;
    /** Model callee FU pressure at call continuations (Improved). */
    bool interprocFu = false;
    /** Skip hints whose value equals the incoming active value. */
    bool elideRedundant = true;
    /** Floor for emitted values (tiny regions still need headroom). */
    int minHint = 4;
    /** Iterations simulated by the unrolled loop estimator. */
    int unrollFactor = 4;
    /** Drain-time slack tolerated when sizing loops (fraction). */
    double loopSlack = 0.02;
    /**
     * Loop bodies are analysed one control-flow path at a time (the
     * paper examines all paths, which is what blows up gcc's compile
     * time); bodies with more paths than this fall back to one
     * conservative all-paths-merged analysis — the "conservative
     * assumptions ... in the presence of complex control paths" the
     * paper blames for gcc's residual IPC loss.
     */
    int maxLoopPaths = 24;
};

/** Per-procedure analysis products (exposed for tests/examples). */
struct ProcedureAnalysis
{
    /** Per-block minimal non-degrading range (the emitted basis). */
    std::vector<int> dagNeed;
    /** Per-block figure-3 span metric (the paper's counting). */
    std::vector<int> dagSpan;
    /** Final per-block region value (clamped). */
    std::vector<int> blockValue;
    /** Index of the innermost loop containing each block, or -1. */
    std::vector<int> innermostLoop;
    std::vector<NaturalLoop> loops;
    std::vector<LoopAnalysis> loopResults;
};

/** Counters for Table 2 and the evaluation discussion. */
struct CompileStats
{
    std::size_t proceduresAnalyzed = 0;
    std::size_t blocksAnalyzed = 0;
    std::size_t loopsAnalyzed = 0;
    std::size_t hintNoopsInserted = 0;
    std::size_t tagsApplied = 0;
    std::size_t hintsElided = 0;
    double seconds = 0.0; ///< wall-clock analysis + insertion time
};

/** Analyze one procedure without modifying it. */
ProcedureAnalysis analyzeProcedure(const Program &prog, int procId,
                                   const CompilerConfig &cfg);

/**
 * Run the whole pass: analyze every procedure and insert hints into
 * @p prog (which is re-finalized). The paper's three schemes:
 *  - NOOP: scheme = Noop
 *  - Extension: scheme = Tag
 *  - Improved: scheme = Tag, interprocFu = true
 */
CompileStats annotate(Program &prog, const CompilerConfig &cfg);

} // namespace siq::compiler

#endif // SIQ_COMPILER_PASS_HH
