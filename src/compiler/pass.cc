#include "compiler/pass.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "common/logging.hh"

namespace siq::compiler
{

namespace
{

/** Registers read by @p si that are visible to the compiler. */
std::vector<int>
readRegsOf(const StaticInst &si)
{
    std::vector<int> regs;
    const auto &t = si.traits();
    if (t.readsSrc1 && si.src1 >= 0 && si.src1 != zeroReg)
        regs.push_back(si.src1);
    if (t.readsSrc2 && si.src2 >= 0 && si.src2 != zeroReg)
        regs.push_back(si.src2);
    return regs;
}

/**
 * Estimate how long a callee keeps each FU class busy after control
 * returns — the Improved scheme's inter-procedural contention model.
 * We histogram the callee entry block (the code most recently in
 * flight for the small hot accessors the paper describes) and charge
 * ceil(count * latency / units) cycles per class.
 */
std::array<int, numFuClasses>
calleeFuPressure(const Procedure &callee, const PseudoIqConfig &cfg)
{
    // per-class unit occupancy contributed by the callee's code most
    // recently in flight (its entry block, capped): pipelined ops
    // hold an issue slot for one cycle, non-pipelined ones (divides)
    // hold a unit for their whole latency
    std::array<int, numFuClasses> occupancy{};
    int budget = 16;
    for (const auto &si : callee.blocks[0].insts) {
        if (budget-- == 0)
            break;
        const auto &t = si.traits();
        if (t.fu == FuClass::None)
            continue;
        const int hold = t.pipelined
                             ? (t.isLoad ? cfg.l1dHitLatency : 1)
                             : t.latency;
        occupancy[static_cast<int>(t.fu)] += hold;
    }
    std::array<int, numFuClasses> busy{};
    for (int k = 1; k < numFuClasses; k++) {
        if (occupancy[k] == 0)
            continue;
        busy[k] = (occupancy[k] + cfg.fuCounts[k] - 1) /
                  cfg.fuCounts[k];
    }
    return busy;
}

/**
 * All acyclic control-flow paths through a loop body, each starting
 * at the header and ending where control reaches the back edge or
 * leaves the body. Returns an empty list when the path count exceeds
 * @p cap (caller falls back to the conservative merged analysis).
 */
std::vector<std::vector<int>>
enumerateLoopPaths(const Procedure &proc,
                   const std::vector<int> &bodyBlocks, int header,
                   std::size_t cap)
{
    std::vector<char> inBody(proc.blocks.size(), 0);
    for (int b : bodyBlocks)
        inBody[static_cast<std::size_t>(b)] = 1;

    std::vector<std::vector<int>> result;
    std::vector<int> path;
    bool overflow = false;

    auto dfs = [&](auto &&self, int block) -> void {
        if (overflow)
            return;
        path.push_back(block);
        bool extended = false;
        bool terminal = false;
        for (int succ : proc.blocks[block].succs) {
            if (succ == header ||
                !inBody[static_cast<std::size_t>(succ)]) {
                terminal = true;
                continue;
            }
            if (std::find(path.begin(), path.end(), succ) !=
                path.end()) {
                continue; // irregular inner cycle: cut here
            }
            extended = true;
            self(self, succ);
        }
        if (terminal || !extended) {
            if (result.size() >= cap)
                overflow = true;
            else
                result.push_back(path);
        }
        path.pop_back();
    };
    dfs(dfs, header);
    if (overflow)
        return {};
    return result;
}

/** The pseudo-IQ sequence of one basic block. */
PseudoIqSequence
buildBlockSequence(const BasicBlock &block, const PseudoIqConfig &cfg,
                   const std::array<int, numArchRegs> &regReadyIn,
                   const std::array<int, numFuClasses> &fuBusy)
{
    const std::vector<const BasicBlock *> one = {&block};
    const Ddg ddg = buildDdg(one, /*loopCarried=*/false,
                             [&](const StaticInst &si) {
                                 return defaultCompilerLatency(
                                     si, cfg.l1dHitLatency);
                             });
    std::vector<PseudoInst> insts;
    insts.reserve(static_cast<std::size_t>(ddg.size()));
    std::vector<char> definedLocally(numArchRegs, 0);
    for (int j = 0; j < ddg.size(); j++) {
        const StaticInst &si = *ddg.nodes[j].inst;
        PseudoInst pi = toPseudoInst(si, cfg);
        for (int r : readRegsOf(si)) {
            if (!definedLocally[r]) {
                pi.externalReady =
                    std::max(pi.externalReady, regReadyIn[r]);
            }
        }
        if (si.writesLiveReg())
            definedLocally[si.dst] = 1;
        insts.push_back(pi);
    }
    std::vector<PseudoDep> deps;
    deps.reserve(ddg.edges.size());
    for (const auto &edge : ddg.edges)
        deps.push_back({edge.from, edge.to});
    return PseudoIqSequence(std::move(insts), deps, cfg, fuBusy);
}

} // namespace

ProcedureAnalysis
analyzeProcedure(const Program &prog, int procId,
                 const CompilerConfig &cfg)
{
    const Procedure &proc = prog.procs[procId];
    const int nblocks = static_cast<int>(proc.blocks.size());

    // Improved: does any call site reach this procedure? Its blocks
    // then get the strict cross-boundary contention criterion.
    bool hasCallers = false;
    if (cfg.interprocFu) {
        for (const auto &p : prog.procs) {
            for (const auto &blk : p.blocks) {
                const StaticInst *term = blk.terminator();
                if (term != nullptr && term->traits().isCall &&
                    term->target == procId) {
                    hasCallers = true;
                }
            }
        }
    }

    ProcedureAnalysis pa;
    pa.dagNeed.assign(nblocks, 0);
    pa.dagSpan.assign(nblocks, 0);
    pa.blockValue.assign(nblocks, cfg.machine.iqSize);
    pa.innermostLoop.assign(nblocks, -1);
    pa.loops = findNaturalLoops(proc);

    // innermost containing loop per block
    for (std::size_t l = 0; l < pa.loops.size(); l++) {
        for (int b : pa.loops[l].blocks) {
            const int cur = pa.innermostLoop[b];
            if (cur < 0 || pa.loops[l].blocks.size() <
                               pa.loops[cur].blocks.size()) {
                pa.innermostLoop[b] = static_cast<int>(l);
            }
        }
    }

    // --- per-block DAG analysis with conservative join of predecessor
    // residual latencies (paper: "conservatively summarise the control
    // flow paths leading to each block")
    const std::vector<int> rpo = reversePostOrder(proc);
    std::vector<std::array<int, numArchRegs>> residual(
        static_cast<std::size_t>(nblocks));
    for (auto &r : residual)
        r.fill(0);

    // map: block -> callee procedure when its terminator is a call
    auto calleeOf = [&](const BasicBlock &block) -> const Procedure * {
        const StaticInst *term = block.terminator();
        if (term != nullptr && term->traits().isCall)
            return &prog.procs[term->target];
        return nullptr;
    };

    for (int b : rpo) {
        const BasicBlock &block = proc.blocks[b];

        std::array<int, numArchRegs> in{};
        std::array<int, numFuClasses> fuBusy{};
        bool isContinuation = false;
        for (int p : block.preds) {
            for (int r = 0; r < numArchRegs; r++)
                in[r] = std::max(in[r], residual[p][r]);
            if (const Procedure *callee = calleeOf(proc.blocks[p])) {
                isContinuation = true;
                if (cfg.interprocFu) {
                    const auto busy =
                        calleeFuPressure(*callee, cfg.machine);
                    for (int k = 0; k < numFuClasses; k++)
                        fuBusy[k] = std::max(fuBusy[k], busy[k]);
                }
            }
        }

        // strict criterion where cross-boundary contention can bite:
        // callee procedures and the blocks resuming after a call
        const bool strict =
            cfg.interprocFu && (hasCallers || isContinuation);
        PseudoIqSequence seq =
            buildBlockSequence(block, cfg.machine, in, fuBusy);
        const RangeSearch search = seq.minimalRange(0.0, strict);
        const PseudoIqResult &res = search.reference;
        pa.dagSpan[b] = res.entriesNeeded;
        pa.dagNeed[b] = search.range;

        // residuals for successors: producer writebacks that outlive
        // this block's drain
        auto &out = residual[b];
        out = in;
        const int origin = res.drainCycles;
        for (int r = 0; r < numArchRegs; r++)
            out[r] = std::max(0, out[r] - origin);
        std::array<int, numArchRegs> lastWb{};
        lastWb.fill(-1);
        for (std::size_t j = 0; j < block.insts.size(); j++) {
            const StaticInst &si = block.insts[j];
            if (si.writesLiveReg()) {
                lastWb[si.dst] = res.issueCycle[j] +
                                 seq.insts()[j].latency;
            }
        }
        for (int r = 0; r < numArchRegs; r++) {
            if (lastWb[r] >= 0)
                out[r] = std::max(0, lastWb[r] - origin);
        }
    }

    // --- loop analysis over each loop's exclusive blocks, in RPO
    std::vector<int> rpoIndex(static_cast<std::size_t>(nblocks),
                              1 << 28);
    for (std::size_t i = 0; i < rpo.size(); i++)
        rpoIndex[rpo[i]] = static_cast<int>(i);

    pa.loopResults.resize(pa.loops.size());
    const auto latencyModel = [&](const StaticInst &si) {
        return defaultCompilerLatency(si,
                                      cfg.machine.l1dHitLatency);
    };
    for (std::size_t l = 0; l < pa.loops.size(); l++) {
        std::vector<int> body = pa.loops[l].exclusiveBlocks(pa.loops);
        std::sort(body.begin(), body.end(), [&](int a, int c) {
            return rpoIndex[a] < rpoIndex[c];
        });

        // per-path analysis (the paper examines every control-flow
        // path), falling back to one conservative merged body when
        // the path count explodes (gcc's switches)
        const auto paths = enumerateLoopPaths(
            proc, body, pa.loops[l].header,
            static_cast<std::size_t>(cfg.maxLoopPaths));
        LoopAnalysis merged;
        if (paths.empty()) {
            std::vector<const BasicBlock *> blocks;
            for (int b : body)
                blocks.push_back(&proc.blocks[b]);
            const Ddg ddg =
                buildDdg(blocks, /*loopCarried=*/true, latencyModel);
            merged = analyzeLoop(ddg, cfg.machine, cfg.unrollFactor,
                                 cfg.loopSlack);
        } else {
            for (const auto &path : paths) {
                std::vector<const BasicBlock *> blocks;
                for (int b : path)
                    blocks.push_back(&proc.blocks[b]);
                const Ddg ddg = buildDdg(blocks, /*loopCarried=*/true,
                                         latencyModel);
                const LoopAnalysis la =
                    analyzeLoop(ddg, cfg.machine, cfg.unrollFactor,
                                cfg.loopSlack);
                merged.entries = std::max(merged.entries, la.entries);
                merged.unrolledEntries = std::max(
                    merged.unrolledEntries, la.unrolledEntries);
            }
        }
        pa.loopResults[l] = merged;
        // never provision below what the member blocks need alone
        for (int b : body) {
            pa.loopResults[l].entries = std::max(
                pa.loopResults[l].entries, pa.dagNeed[b]);
        }
        pa.loopResults[l].entries =
            std::min(pa.loopResults[l].entries, cfg.machine.iqSize);
    }

    // --- final per-block region values; in-loop blocks also honour
    // their own DAG need so the Improved scheme's inflated
    // call-continuation estimates take effect inside loops
    for (int b = 0; b < nblocks; b++) {
        int value;
        if (pa.innermostLoop[b] >= 0) {
            value = std::max(
                pa.loopResults[pa.innermostLoop[b]].entries,
                pa.dagNeed[b]);
        } else {
            value = pa.dagNeed[b];
        }
        pa.blockValue[b] = std::clamp(value, cfg.minHint,
                                      cfg.machine.iqSize);
    }
    return pa;
}

namespace
{

/** Planned hint insertions for one block. */
struct BlockPlan
{
    int startHint = -1; ///< value at block start, -1 = none
    int endHint = -1;   ///< value before the terminator, -1 = none
};

} // namespace

CompileStats
annotate(Program &prog, const CompilerConfig &cfg)
{
    const auto t0 = std::chrono::steady_clock::now();
    CompileStats stats;

    for (auto &proc : prog.procs) {
        const ProcedureAnalysis pa =
            analyzeProcedure(prog, proc.id, cfg);
        stats.proceduresAnalyzed++;
        stats.blocksAnalyzed += proc.blocks.size();
        stats.loopsAnalyzed += pa.loops.size();

        const int nblocks = static_cast<int>(proc.blocks.size());
        std::vector<BlockPlan> plan(static_cast<std::size_t>(nblocks));

        // 1. region-start hints for blocks outside loops, procedure
        //    entry blocks and call continuations
        for (int b = 0; b < nblocks; b++) {
            const bool inLoop = pa.innermostLoop[b] >= 0;
            bool isContinuation = false;
            for (int p : proc.blocks[b].preds) {
                const StaticInst *term =
                    proc.blocks[p].terminator();
                if (term != nullptr && term->traits().isCall &&
                    proc.blocks[p].fallthrough == b) {
                    isContinuation = true;
                }
            }
            const bool isEntry = b == 0;
            const bool headerOfLoop = [&] {
                for (const auto &loop : pa.loops)
                    if (loop.header == b)
                        return true;
                return false;
            }();
            if ((!inLoop) || isContinuation ||
                (isEntry && !headerOfLoop)) {
                plan[b].startHint = pa.blockValue[b];
            }
        }

        // 2. loop-entry hints at the end of outside predecessors
        for (std::size_t l = 0; l < pa.loops.size(); l++) {
            const auto &loop = pa.loops[l];
            const int value = std::clamp(pa.loopResults[l].entries,
                                         cfg.minHint,
                                         cfg.machine.iqSize);
            for (int p : proc.blocks[loop.header].preds) {
                if (loop.contains(p))
                    continue;
                plan[p].endHint = std::max(plan[p].endHint, value);
            }
        }

        // 3. library calls: max the IQ immediately before the call
        for (int b = 0; b < nblocks; b++) {
            const StaticInst *term = proc.blocks[b].terminator();
            if (term != nullptr && term->traits().isCall &&
                prog.procs[term->target].isLibrary) {
                plan[b].endHint = cfg.machine.iqSize;
            }
        }

        // 4. redundant-hint elision: a start hint whose single
        //    non-call predecessor already ends on the same value
        if (cfg.elideRedundant) {
            for (int b = 0; b < nblocks; b++) {
                if (plan[b].startHint < 0 ||
                    proc.blocks[b].preds.size() != 1) {
                    continue;
                }
                const int p = proc.blocks[b].preds.front();
                const StaticInst *term =
                    proc.blocks[p].terminator();
                if (term != nullptr && term->traits().isCall)
                    continue;
                const int predExit = plan[p].endHint >= 0
                                         ? plan[p].endHint
                                         : plan[p].startHint;
                if (predExit == plan[b].startHint &&
                    proc.blocks[p].insts.empty() == false) {
                    plan[b].startHint = -1;
                    stats.hintsElided++;
                }
            }
        }

        // 5. apply the plan
        for (int b = 0; b < nblocks; b++) {
            BasicBlock &block = proc.blocks[b];
            const BlockPlan &bp = plan[b];
            if (cfg.scheme == HintScheme::Noop) {
                if (bp.endHint >= 0) {
                    auto pos = block.insts.end();
                    if (block.terminator() != nullptr)
                        --pos;
                    block.insts.insert(
                        pos, makeHint(static_cast<std::uint16_t>(
                                 bp.endHint)));
                    stats.hintNoopsInserted++;
                }
                if (bp.startHint >= 0) {
                    block.insts.insert(
                        block.insts.begin(),
                        makeHint(static_cast<std::uint16_t>(
                            bp.startHint)));
                    stats.hintNoopsInserted++;
                }
            } else {
                if (bp.startHint >= 0) {
                    if (block.insts.empty()) {
                        block.insts.insert(
                            block.insts.begin(),
                            makeHint(static_cast<std::uint16_t>(
                                bp.startHint)));
                        stats.hintNoopsInserted++;
                    } else {
                        auto &si = block.insts.front();
                        si.tagHint = static_cast<std::uint16_t>(
                            std::max<int>(si.tagHint, bp.startHint));
                        stats.tagsApplied++;
                    }
                }
                if (bp.endHint >= 0) {
                    if (block.insts.empty()) {
                        block.insts.insert(
                            block.insts.begin(),
                            makeHint(static_cast<std::uint16_t>(
                                bp.endHint)));
                        stats.hintNoopsInserted++;
                    } else {
                        auto &si = block.insts.back();
                        si.tagHint = static_cast<std::uint16_t>(
                            std::max<int>(si.tagHint, bp.endHint));
                        stats.tagsApplied++;
                    }
                }
            }
        }
    }

    prog.finalize();
    const auto t1 = std::chrono::steady_clock::now();
    stats.seconds =
        std::chrono::duration<double>(t1 - t0).count();
    return stats;
}

} // namespace siq::compiler
