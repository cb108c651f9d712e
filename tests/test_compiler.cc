/**
 * @file
 * Compiler pass tests beyond the paper goldens: pseudo-IQ behaviour,
 * minimal-range properties (held to the first-written drain and
 * search on random sequences), hint placement rules (per-block, loop
 * entry, procedure entry, call continuation, library call), elision,
 * the tag scheme and a golden digest over every annotated family.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>

#include "compiler/pass.hh"
#include "sim/technique.hh"
#include "workloads/builder.hh"
#include "workloads/family.hh"
#include "workloads/workloads.hh"

namespace siq::compiler
{
namespace
{

PseudoInst
alu(int latency = 1)
{
    PseudoInst pi;
    pi.latency = latency;
    pi.fu = FuClass::IntAlu;
    return pi;
}

TEST(PseudoIq, DispatchWidthLimitsEntry)
{
    // 16 independent ops with no unit constraint, dispatch 8/cycle:
    // the second batch issues one cycle later
    PseudoInst free;
    free.fu = FuClass::None;
    std::vector<PseudoInst> insts(16, free);
    PseudoIqConfig cfg;
    const auto res = simulatePseudoIq(insts, {}, cfg, {}, cfg.iqSize);
    EXPECT_EQ(res.issueCycle[0], 1);
    EXPECT_EQ(res.issueCycle[8], 2);
    EXPECT_EQ(res.drainCycles, 3);
}

TEST(PseudoIq, AluCountBoundsIssueWaves)
{
    // 16 single-cycle ALU ops on 6 units: three issue waves
    std::vector<PseudoInst> insts(16, alu());
    PseudoIqConfig cfg;
    const auto res = simulatePseudoIq(insts, {}, cfg, {}, cfg.iqSize);
    EXPECT_EQ(res.drainCycles, 4);
    EXPECT_EQ(res.issueCycle[5], res.issueCycle[0]);
    EXPECT_EQ(res.issueCycle[6], res.issueCycle[0] + 1);
}

TEST(PseudoIq, FuContentionSerializes)
{
    // 6 multiplies on 3 units: two issue waves
    std::vector<PseudoInst> insts;
    for (int i = 0; i < 6; i++) {
        PseudoInst pi = alu(3);
        pi.fu = FuClass::IntMul;
        insts.push_back(pi);
    }
    PseudoIqConfig cfg;
    const auto res = simulatePseudoIq(insts, {}, cfg, {}, cfg.iqSize);
    EXPECT_EQ(res.issueCycle[2], res.issueCycle[0]);
    EXPECT_EQ(res.issueCycle[3], res.issueCycle[0] + 1);
}

TEST(PseudoIq, NonPipelinedOpsHoldUnits)
{
    // 4 divides on 3 units: the fourth waits a full latency
    std::vector<PseudoInst> insts;
    for (int i = 0; i < 4; i++) {
        PseudoInst pi = alu(12);
        pi.fu = FuClass::IntMul;
        pi.pipelined = false;
        insts.push_back(pi);
    }
    PseudoIqConfig cfg;
    const auto res = simulatePseudoIq(insts, {}, cfg, {}, cfg.iqSize);
    EXPECT_EQ(res.issueCycle[2], res.issueCycle[0]);
    EXPECT_EQ(res.issueCycle[3], res.issueCycle[0] + 12);
}

TEST(PseudoIq, ExternalReadinessDelaysIssue)
{
    std::vector<PseudoInst> insts(2, alu());
    insts[1].externalReady = 10;
    PseudoIqConfig cfg;
    const auto res = simulatePseudoIq(insts, {}, cfg, {}, cfg.iqSize);
    EXPECT_EQ(res.issueCycle[0], 1);
    EXPECT_EQ(res.issueCycle[1], 10);
}

TEST(PseudoIq, FuBusyUntilDelaysClass)
{
    std::vector<PseudoInst> insts = {alu()};
    PseudoIqConfig cfg;
    std::array<int, numFuClasses> busy{};
    busy[static_cast<int>(FuClass::IntAlu)] = 7;
    const auto res = simulatePseudoIq(insts, {}, cfg, busy,
                                      cfg.iqSize);
    EXPECT_EQ(res.issueCycle[0], 7);
}

TEST(MinimalRange, MonotoneAndBounded)
{
    // serial chain: range 1 already runs at full (serial) speed
    std::vector<PseudoInst> chain(20, alu());
    std::vector<PseudoDep> deps;
    for (int i = 1; i < 20; i++)
        deps.push_back({i - 1, i});
    PseudoIqConfig cfg;
    EXPECT_LE(PseudoIqSequence(chain, deps, cfg).minimalRange().range,
              2);

    // fully parallel ALU work: bounded by the 6 ALU units
    std::vector<PseudoInst> par(64, alu());
    const int r = PseudoIqSequence(par, {}, cfg).minimalRange().range;
    const int alus =
        cfg.fuCounts[static_cast<int>(FuClass::IntAlu)];
    EXPECT_GE(r, alus - 1);
    EXPECT_LE(r, alus + 3);
}

TEST(MinimalRange, StrictModeProtectsIssueTimes)
{
    // a late independent divide can be delayed without changing the
    // drain (it hides under an earlier longer chain), but strict mode
    // must keep its issue time
    std::vector<PseudoInst> insts;
    std::vector<PseudoDep> deps;
    // chain of 16 dependent alus (drain driver)
    for (int i = 0; i < 16; i++) {
        insts.push_back(alu());
        if (i > 0)
            deps.push_back({i - 1, i});
    }
    PseudoInst div = alu(12);
    div.fu = FuClass::IntMul;
    div.pipelined = false;
    insts.push_back(div); // position 16, independent
    PseudoIqConfig cfg;
    PseudoIqSequence seq(insts, deps, cfg);
    const int relaxed = seq.minimalRange(0.0, false).range;
    const int strict = seq.minimalRange(0.0, true).range;
    EXPECT_GT(strict, relaxed);
}

/**
 * The pseudo IQ as it was first written (plus the widest-window
 * record): children rebuilt per drain and every cycle's issue scan
 * walking the whole window, issued entries included. The property
 * test below holds the shared-graph drain and the range search to it.
 */
PseudoIqResult
naiveDrain(const std::vector<PseudoInst> &insts,
           const std::vector<PseudoDep> &deps, const PseudoIqConfig &cfg,
           const std::array<int, numFuClasses> &fuBusyUntil,
           int rangeLimit)
{
    const int n = static_cast<int>(insts.size());
    PseudoIqResult res;
    res.issueCycle.assign(static_cast<std::size_t>(n), -1);
    if (n == 0)
        return res;
    std::vector<int> readyAt(static_cast<std::size_t>(n), 0);
    std::vector<int> dispatchedAt(static_cast<std::size_t>(n), -1);
    std::vector<int> pendingParents(static_cast<std::size_t>(n), 0);
    std::vector<std::vector<int>> children(static_cast<std::size_t>(n));
    for (int i = 0; i < n; i++)
        readyAt[i] = insts[i].externalReady;
    for (const auto &d : deps) {
        pendingParents[d.to]++;
        children[d.from].push_back(d.to);
    }
    std::array<std::vector<int>, numFuClasses> unitFreeAt;
    for (int k = 1; k < numFuClasses; k++) {
        unitFreeAt[k].assign(
            static_cast<std::size_t>(std::min(cfg.fuCounts[k], 64)),
            fuBusyUntil[k]);
    }
    int remaining = n;
    int nextDispatch = 0;
    int oldestUnissued = 0;
    int cycle = 0;
    auto dispatch = [&] {
        for (int d = 0; d < cfg.dispatchWidth && nextDispatch < n &&
                        nextDispatch - oldestUnissued < rangeLimit;
             d++) {
            res.widestWindow = std::max(
                res.widestWindow, nextDispatch - oldestUnissued + 1);
            dispatchedAt[nextDispatch++] = cycle;
        }
    };
    dispatch();
    while (remaining > 0) {
        int issued = 0;
        int youngestIssued = -1;
        const int oldestAtStart = oldestUnissued;
        for (int i = oldestUnissued;
             i < nextDispatch && issued < cfg.issueWidth; i++) {
            if (res.issueCycle[i] >= 0 || pendingParents[i] > 0 ||
                readyAt[i] > cycle || dispatchedAt[i] >= cycle) {
                continue;
            }
            const PseudoInst &pi = insts[i];
            if (pi.fu != FuClass::None) {
                int *unit = nullptr;
                for (int &freeAt : unitFreeAt[static_cast<int>(pi.fu)]) {
                    if (freeAt <= cycle) {
                        unit = &freeAt;
                        break;
                    }
                }
                if (unit == nullptr)
                    continue;
                *unit = pi.pipelined ? cycle + 1 : cycle + pi.latency;
            }
            issued++;
            res.issueCycle[i] = cycle;
            youngestIssued = i;
            for (int c : children[i]) {
                pendingParents[c]--;
                readyAt[c] = std::max(readyAt[c], cycle + pi.latency);
            }
        }
        if (youngestIssued >= 0) {
            res.entriesNeeded = std::max(
                res.entriesNeeded, youngestIssued - oldestAtStart + 1);
            remaining -= issued;
            while (oldestUnissued < n &&
                   res.issueCycle[oldestUnissued] >= 0) {
                oldestUnissued++;
            }
            res.drainCycles = cycle + 1;
        }
        dispatch();
        cycle++;
    }
    return res;
}

/** The range search as it was first written: drain the reference,
 *  then binary-search [1, cfg.iqSize] draining every probe. */
int
naiveMinimalRange(const std::vector<PseudoInst> &insts,
                  const std::vector<PseudoDep> &deps,
                  const PseudoIqConfig &cfg,
                  const std::array<int, numFuClasses> &fuBusyUntil,
                  double slackFraction, bool strict)
{
    if (insts.empty())
        return 1;
    const PseudoIqResult ref =
        naiveDrain(insts, deps, cfg, fuBusyUntil, cfg.iqSize);
    const int drainBudget =
        ref.drainCycles +
        static_cast<int>(static_cast<double>(ref.drainCycles) *
                         slackFraction);
    auto acceptable = [&](int range) {
        const PseudoIqResult res =
            naiveDrain(insts, deps, cfg, fuBusyUntil, range);
        if (res.drainCycles > drainBudget)
            return false;
        if (strict) {
            for (std::size_t i = 0; i < insts.size(); i++) {
                if (res.issueCycle[i] > ref.issueCycle[i])
                    return false;
            }
        }
        return true;
    };
    int lo = 1;
    int hi = cfg.iqSize;
    while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        if (acceptable(mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

void
expectSameDrain(const PseudoIqResult &a, const PseudoIqResult &b)
{
    EXPECT_EQ(a.issueCycle, b.issueCycle);
    EXPECT_EQ(a.drainCycles, b.drainCycles);
    EXPECT_EQ(a.entriesNeeded, b.entriesNeeded);
    EXPECT_EQ(a.widestWindow, b.widestWindow);
}

TEST(MinimalRange, MatchesTheFirstWrittenDrainAndSearch)
{
    std::mt19937 rng(20050212);
    auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const double slacks[] = {0.0, 0.02, 0.1, 0.5};
    int skipped = 0;
    for (int trial = 0; trial < 1500; trial++) {
        PseudoIqConfig cfg;
        cfg.iqSize = pick(1, 96);
        cfg.issueWidth = pick(1, 8);
        cfg.dispatchWidth = pick(1, 8);
        if (pick(0, 1) == 1) {
            for (int k = 1; k < numFuClasses; k++)
                cfg.fuCounts[k] = pick(1, 4);
        }
        std::array<int, numFuClasses> busy{};
        if (pick(0, 2) == 0) {
            for (int k = 1; k < numFuClasses; k++)
                busy[k] = pick(0, 12);
        }

        // a random DAG: every dependence points to a later position
        const int n = pick(0, 64);
        std::vector<PseudoInst> insts(static_cast<std::size_t>(n));
        std::vector<PseudoDep> deps;
        for (int i = 0; i < n; i++) {
            PseudoInst &pi = insts[static_cast<std::size_t>(i)];
            pi.fu = static_cast<FuClass>(pick(0, numFuClasses - 1));
            pi.latency = pick(1, 12);
            pi.pipelined = pick(0, 4) != 0;
            pi.externalReady = pick(0, 3) == 0 ? pick(1, 20) : 0;
            for (int p = pick(0, 3); p > 0 && i > 0; p--)
                deps.push_back({pick(std::max(0, i - 12), i - 1), i});
        }
        const double slack = slacks[pick(0, 3)];
        const bool strict = pick(0, 1) == 1;

        PseudoIqSequence seq(insts, deps, cfg, busy);
        const RangeSearch search = seq.minimalRange(slack, strict);
        ASSERT_EQ(search.range,
                  naiveMinimalRange(insts, deps, cfg, busy, slack,
                                    strict))
            << "trial " << trial;
        const PseudoIqResult ref =
            naiveDrain(insts, deps, cfg, busy, cfg.iqSize);
        expectSameDrain(search.reference, ref);
        if (ref.widestWindow < cfg.iqSize)
            skipped++;

        // any range, drained again on the same sequence: its scratch
        // state does not leak across drains
        const int range = pick(0, 3) == 0 ? unboundedRange
                                          : pick(1, cfg.iqSize);
        PseudoIqResult probe;
        seq.drain(range, probe);
        expectSameDrain(probe,
                        naiveDrain(insts, deps, cfg, busy, range));
        seq.drain(cfg.iqSize, probe);
        expectSameDrain(probe, ref);
        if (HasFailure())
            FAIL() << "trial " << trial;
    }
    EXPECT_GT(skipped, 100) << "the skip must be exercised";
}

TEST(LoopAnalysis, SerialLoopNeedsFewEntries)
{
    // body: r1 += 1 (self-carried); 6 independent consumers
    ProgramBuilder b("serial", 64);
    b.newProc("main");
    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, 100));
    auto loop = b.beginLoop(1, 2);
    // r3 carries across iterations: a true 9-cycle recurrence
    b.emit(makeMul(3, 3, 1));
    b.emit(makeMul(3, 3, 3));
    b.emit(makeMul(3, 3, 3));
    b.endLoop(loop);
    b.emit(makeHalt());
    const Program prog = b.build();
    const auto loops = findNaturalLoops(prog.procs[0]);
    ASSERT_EQ(loops.size(), 1u);
    std::vector<const BasicBlock *> blocks;
    for (int blk : loops[0].blocks)
        blocks.push_back(&prog.procs[0].blocks[blk]);
    const Ddg ddg = buildDdg(blocks, true);
    const auto la = analyzeLoop(ddg, PseudoIqConfig{});
    EXPECT_LE(la.entries, 16)
        << "a 9-cycle serial recurrence cannot use a big window";
    EXPECT_TRUE(analyzeCds(ddg).has_value());
}

TEST(LoopAnalysis, ParallelLoopWantsManyEntries)
{
    // independent iterations: only resources bound the window
    ProgramBuilder b("parallel", 1 << 12);
    b.newProc("main");
    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, 100));
    b.emit(makeMovImm(6, 64));
    auto loop = b.beginLoop(1, 2);
    b.emit(makeAdd(3, 6, 1));
    b.emit(makeLoad(4, 3, 0));
    b.emit(makeLoad(5, 3, 1));
    b.emit(makeAdd(7, 4, 5));
    b.emit(makeMul(8, 7, 7));
    b.emit(makeStore(3, 8, 2));
    b.endLoop(loop);
    b.emit(makeHalt());
    const Program prog = b.build();
    const auto loops = findNaturalLoops(prog.procs[0]);
    ASSERT_EQ(loops.size(), 1u);
    std::vector<const BasicBlock *> blocks;
    for (int blk : loops[0].blocks)
        blocks.push_back(&prog.procs[0].blocks[blk]);
    const Ddg ddg = buildDdg(blocks, true);
    const auto la = analyzeLoop(ddg, PseudoIqConfig{});
    EXPECT_GT(la.entries, 20);
}

/** Tiny two-procedure program exercising every placement rule. */
Program
placementProgram()
{
    ProgramBuilder b("place", 256);
    const int lib = b.newProc("libfun", /*isLibrary=*/true);
    b.emit(makeAddImm(9, 9, 1));
    b.emit(makeRet());
    const int mainP = b.newProc("main");
    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, 10));
    auto loop = b.beginLoop(1, 2);
    b.emit(makeAdd(3, 3, 1));
    b.endLoop(loop);
    b.callProc(lib); // library call from a non-loop block
    b.emit(makeAddImm(4, 4, 1));
    b.emit(makeHalt());
    Program prog = b.build();
    prog.entryProc = mainP;
    return prog;
}

TEST(HintPlacement, NoopSchemeRules)
{
    Program prog = placementProgram();
    CompilerConfig cfg;
    cfg.elideRedundant = false;
    const auto stats = annotate(prog, cfg);
    EXPECT_GT(stats.hintNoopsInserted, 0u);
    EXPECT_EQ(stats.tagsApplied, 0u);

    const Procedure &mainProc = prog.procs[1];
    // block 0 (procedure entry, outside loops) starts with a hint
    EXPECT_EQ(mainProc.blocks[0].insts.front().op, Opcode::Hint);
    // the loop-entry hint sits at the end of the preheader-side
    // block, before its terminator if any: find a hint in block 0's
    // tail (block 0 falls into the loop header)
    EXPECT_EQ(mainProc.blocks[0].insts.back().op, Opcode::Hint)
        << "loop-entry hint before entering the header";
    // library call: the calling block ends with hint #iqSize then
    // the call
    const StaticInst *libHint = nullptr;
    for (const auto &block : mainProc.blocks) {
        const StaticInst *term = block.terminator();
        if (term != nullptr && term->traits().isCall &&
            block.insts.size() >= 2) {
            libHint = &block.insts[block.insts.size() - 2];
        }
    }
    ASSERT_NE(libHint, nullptr);
    EXPECT_EQ(libHint->op, Opcode::Hint);
    EXPECT_EQ(libHint->hintValue, cfg.machine.iqSize)
        << "library calls max the IQ (paper section 4.4)";
    // no hint inside the loop body blocks (they are one region)
    const auto loops = findNaturalLoops(mainProc);
    ASSERT_EQ(loops.size(), 1u);
    for (int blk : loops[0].blocks) {
        for (const auto &inst : mainProc.blocks[blk].insts)
            EXPECT_NE(inst.op, Opcode::Hint)
                << "block " << blk << " is inside the loop region";
    }
}

TEST(HintPlacement, TagSchemeUsesNoDispatchSlots)
{
    Program prog = placementProgram();
    CompilerConfig cfg;
    cfg.scheme = HintScheme::Tag;
    cfg.elideRedundant = false;
    const auto stats = annotate(prog, cfg);
    EXPECT_GT(stats.tagsApplied, 0u);
    std::size_t hintInsts = 0;
    for (const auto &proc : prog.procs)
        for (const auto &block : proc.blocks)
            for (const auto &inst : block.insts)
                if (inst.op == Opcode::Hint)
                    hintInsts++;
    EXPECT_EQ(hintInsts, stats.hintNoopsInserted)
        << "tags only fall back to NOOPs for empty blocks";
}

TEST(HintPlacement, CallContinuationGetsHint)
{
    ProgramBuilder b("cont", 64);
    const int callee = b.newProc("callee");
    b.emit(makeAddImm(9, 9, 1));
    b.emit(makeRet());
    const int mainP = b.newProc("main");
    b.emit(makeAddImm(1, 1, 1));
    b.callProc(callee);
    b.emit(makeAddImm(2, 2, 1)); // continuation block
    b.emit(makeHalt());
    Program prog = b.build();
    prog.entryProc = mainP;
    CompilerConfig cfg;
    cfg.elideRedundant = false;
    annotate(prog, cfg);
    // the continuation block (fallthrough of the call) starts with a
    // hint: the callee's hints invalidated the caller's range
    const Procedure &mainProc = prog.procs[1];
    int contBlock = -1;
    for (const auto &block : mainProc.blocks) {
        const StaticInst *term = block.terminator();
        if (term != nullptr && term->traits().isCall)
            contBlock = block.fallthrough;
    }
    ASSERT_GE(contBlock, 0);
    EXPECT_EQ(mainProc.blocks[contBlock].insts.front().op,
              Opcode::Hint);
}

TEST(HintPlacement, ElisionRemovesRedundantHints)
{
    Program withElide = placementProgram();
    Program without = placementProgram();
    CompilerConfig cfg;
    cfg.elideRedundant = true;
    const auto statsElide = annotate(withElide, cfg);
    cfg.elideRedundant = false;
    const auto statsFull = annotate(without, cfg);
    EXPECT_LE(statsElide.hintNoopsInserted,
              statsFull.hintNoopsInserted);
}

TEST(HintValues, ClampedToConfiguredBounds)
{
    Program prog = workloads::generate("gzip", {});
    CompilerConfig cfg;
    cfg.minHint = 6;
    annotate(prog, cfg);
    for (const auto &proc : prog.procs) {
        for (const auto &block : proc.blocks) {
            for (const auto &inst : block.insts) {
                if (inst.op == Opcode::Hint) {
                    EXPECT_GE(inst.hintValue, 6);
                    EXPECT_LE(inst.hintValue, cfg.machine.iqSize);
                }
                if (inst.tagHint != 0) {
                    EXPECT_GE(inst.tagHint, 6);
                    EXPECT_LE(inst.tagHint, cfg.machine.iqSize);
                }
            }
        }
    }
}

TEST(Improved, RaisesValuesForCalledProcedures)
{
    Program prog = workloads::generate("vortex", {});
    CompilerConfig plain;
    plain.scheme = HintScheme::Tag;
    CompilerConfig improved = plain;
    improved.interprocFu = true;
    // accessor procedures (called, divide-bearing) must not shrink
    // under the strict criterion
    for (int p = 0; p < 8; p++) {
        const auto pa = analyzeProcedure(prog, p, plain);
        const auto pi = analyzeProcedure(prog, p, improved);
        EXPECT_GE(pi.dagNeed[0], pa.dagNeed[0]) << "proc " << p;
    }
}

TEST(CompileStats, CountsAndTimes)
{
    Program prog = workloads::generate("gcc", {});
    CompilerConfig cfg;
    const auto stats = annotate(prog, cfg);
    EXPECT_EQ(stats.proceduresAnalyzed, prog.procs.size());
    EXPECT_GT(stats.blocksAnalyzed, 100u);
    EXPECT_GT(stats.loopsAnalyzed, 0u);
    EXPECT_GT(stats.seconds, 0.0);
}

TEST(PathEnumeration, GccConservativeFallbackStillAnnotates)
{
    // gcc's dispatcher loop exceeds the path cap; the pass must still
    // produce valid hints everywhere
    Program prog = workloads::generate("gcc", {});
    CompilerConfig cfg;
    cfg.maxLoopPaths = 4; // force fallbacks
    const auto stats = annotate(prog, cfg);
    EXPECT_GT(stats.hintNoopsInserted, 0u);
}

/** FNV-1a 64-bit, folded one integer at a time. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; i++) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

/** Generated before the compiler's shared-graph drain was written;
 *  any change to a hint value, placement or count moves it. */
constexpr std::uint64_t kAnnotationDigest = 0xaa7c01b06eb307fdull;

TEST(AnnotationPin, EveryFamilyAndSchemeMatchesGoldenDigest)
{
    // the determinism pin's workload parameters (seed 12345,
    // repDivisor 40) under every technique that annotates
    sim::RunConfig rc;
    rc.workload.repDivisor = 40;
    Fnv1a fnv;
    int annotated = 0;
    for (const auto &family : workloads::familyNames()) {
        const Program raw = workloads::generate(family, rc.workload);
        for (const auto &name : sim::techniqueNames()) {
            const sim::TechniqueDef *def = sim::findTechnique(name);
            if (!def->compilerConfig)
                continue;
            Program prog = raw;
            const CompileStats stats =
                annotate(prog, *def->compilerConfig(rc));
            annotated++;
            for (const auto &proc : prog.procs) {
                for (const auto &block : proc.blocks) {
                    fnv.add(block.insts.size());
                    for (const auto &inst : block.insts) {
                        fnv.add(static_cast<std::uint64_t>(inst.op));
                        fnv.add(inst.hintValue);
                        fnv.add(inst.tagHint);
                    }
                }
            }
            fnv.add(stats.proceduresAnalyzed);
            fnv.add(stats.blocksAnalyzed);
            fnv.add(stats.loopsAnalyzed);
            fnv.add(stats.hintNoopsInserted);
            fnv.add(stats.tagsApplied);
            fnv.add(stats.hintsElided);
        }
    }
    EXPECT_EQ(annotated, 14 * 3);
    EXPECT_EQ(fnv.h, kAnnotationDigest)
        << "annotated programs changed: actual digest is 0x" << std::hex
        << fnv.h;
}

} // namespace
} // namespace siq::compiler
