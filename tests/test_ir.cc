/** @file IR tests: CFG building, exec semantics, the copy-on-write
 *  memory image, dominators, loops, DDG construction and SCC
 *  discovery. */

#include <gtest/gtest.h>

#include <thread>

#include "cpu/core.hh"
#include "ir/cfg.hh"
#include "ir/ddg.hh"
#include "ir/exec.hh"
#include "workloads/builder.hh"
#include "workloads/family.hh"

namespace siq
{
namespace
{

/** main: r1 = 5; r2 = r1 + 3; mem[4] = r2; halt */
Program
straightLine()
{
    ProgramBuilder b("straight", 64);
    b.newProc("main");
    b.emit(makeMovImm(1, 5));
    b.emit(makeAddImm(2, 1, 3));
    b.emit(makeMovImm(3, 4));
    b.emit(makeStore(3, 2, 0));
    b.emit(makeHalt());
    return b.build();
}

TEST(Exec, StraightLineSemantics)
{
    const Program prog = straightLine();
    ExecContext ctx(prog);
    while (!ctx.halted())
        ctx.step();
    EXPECT_EQ(ctx.intReg(1), 5);
    EXPECT_EQ(ctx.intReg(2), 8);
    EXPECT_EQ(ctx.readMem(4), 8);
    EXPECT_EQ(ctx.instsExecuted(), 5u);
}

TEST(Exec, ZeroRegisterReadsZeroAndIgnoresWrites)
{
    ProgramBuilder b("zero", 64);
    b.newProc("main");
    b.emit(makeMovImm(0, 99)); // discarded
    b.emit(makeAddImm(1, 0, 7));
    b.emit(makeHalt());
    const Program prog = b.build();
    ExecContext ctx(prog);
    while (!ctx.halted())
        ctx.step();
    EXPECT_EQ(ctx.intReg(0), 0);
    EXPECT_EQ(ctx.intReg(1), 7);
}

TEST(Exec, LoopRunsToCompletion)
{
    ProgramBuilder b("loop", 64);
    b.newProc("main");
    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, 10));
    auto loop = b.beginLoop(1, 2);
    b.emit(makeAddImm(3, 3, 2)); // r3 += 2 each iteration
    b.endLoop(loop);
    b.emit(makeHalt());
    const Program prog = b.build();
    ExecContext ctx(prog);
    while (!ctx.halted())
        ctx.step();
    EXPECT_EQ(ctx.intReg(3), 20);
    EXPECT_EQ(ctx.intReg(1), 10);
}

TEST(Exec, CallAndReturnThroughNestedProcedures)
{
    ProgramBuilder b("calls", 64);
    const int inner = b.newProc("inner");
    b.emit(makeAddImm(5, 5, 1));
    b.emit(makeRet());
    const int outer = b.newProc("outer");
    b.callProc(inner);
    b.callProc(inner);
    b.emit(makeRet());
    const int mainP = b.newProc("main");
    b.callProc(outer);
    b.emit(makeHalt());
    (void)mainP;
    Program prog = b.build();
    prog.entryProc = mainP;
    ExecContext ctx(prog);
    while (!ctx.halted())
        ctx.step();
    EXPECT_EQ(ctx.intReg(5), 2);
    EXPECT_EQ(ctx.callDepth(), 0u);
    (void)outer;
}

TEST(Exec, IndirectJumpSelectsByRegister)
{
    ProgramBuilder b("switch", 64);
    b.newProc("main");
    b.emit(makeMovImm(1, 2)); // select case 2
    auto sw = b.beginSwitch(1, 3);
    for (int c = 0; c < 3; c++) {
        b.switchTo(sw.cases[static_cast<std::size_t>(c)]);
        b.emit(makeMovImm(9, 100 + c));
        b.jumpTo(sw.join);
    }
    b.switchTo(sw.join);
    b.emit(makeHalt());
    const Program prog = b.build();
    ExecContext ctx(prog);
    while (!ctx.halted())
        ctx.step();
    EXPECT_EQ(ctx.intReg(9), 102);
}

TEST(Exec, AddressesWrapModuloMemory)
{
    ProgramBuilder b("wrap", 16);
    b.newProc("main");
    b.emit(makeMovImm(1, 16 + 3)); // wraps to word 3
    b.emit(makeMovImm(2, 77));
    b.emit(makeStore(1, 2, 0));
    b.emit(makeHalt());
    const Program prog = b.build();
    ExecContext ctx(prog);
    while (!ctx.halted())
        ctx.step();
    EXPECT_EQ(ctx.readMem(3), 77);
}

// ------------------------------------------ copy-on-write memory image

/** memInit applied to zeroed memory, computed independently of
 *  Program::initialMemory(). */
std::vector<std::int64_t>
expectedImage(const Program &prog)
{
    std::vector<std::int64_t> mem(prog.memWords, 0);
    const auto size = static_cast<std::int64_t>(prog.memWords);
    for (const auto &[addr, value] : prog.memInit)
        mem[static_cast<std::size_t>(
            ((static_cast<std::int64_t>(addr) % size) + size) % size)] =
            value;
    return mem;
}

/** One small program per registered family. */
std::vector<Program>
everyFamily()
{
    workloads::WorkloadParams wp;
    wp.repDivisor = 40;
    std::vector<Program> progs;
    for (const std::string &name : workloads::familyNames())
        progs.push_back(workloads::generate(name, wp));
    return progs;
}

/** Words where @p ctx's memory differs from @p image. */
std::size_t
wordsDiffering(const ExecContext &ctx,
               const std::vector<std::int64_t> &image)
{
    std::size_t n = 0;
    for (std::uint64_t w = 0; w < image.size(); w++)
        n += ctx.readMem(w) != image[w] ? 1 : 0;
    return n;
}

TEST(CopyOnWrite, FreshContextReadsTheInitialImage)
{
    for (const Program &prog : everyFamily()) {
        const auto image = expectedImage(prog);
        const ExecContext ctx(prog);
        EXPECT_EQ(wordsDiffering(ctx, image), 0u) << prog.name;
        EXPECT_EQ(prog.initialMemory(), image) << prog.name;
    }
}

TEST(CopyOnWrite, StoresNeverLeakIntoTheSharedImage)
{
    std::size_t familiesThatStored = 0;
    for (const Program &prog : everyFamily()) {
        const auto image = expectedImage(prog);
        ExecContext writer(prog);
        for (int i = 0; i < 20000 && !writer.halted(); i++)
            writer.step();
        familiesThatStored += wordsDiffering(writer, image) > 0 ? 1 : 0;

        // a context made after the stores still sees pristine pages,
        // and so does an annotated-style copy of the program
        const ExecContext fresh(prog);
        EXPECT_EQ(wordsDiffering(fresh, image), 0u) << prog.name;
        Program copy = prog;
        copy.finalize();
        const ExecContext fromCopy(copy);
        EXPECT_EQ(wordsDiffering(fromCopy, image), 0u) << prog.name;
        EXPECT_EQ(copy.initialMemory().data(),
                  prog.initialMemory().data())
            << prog.name << ": a copy with unchanged memory shares it";
    }
    EXPECT_GT(familiesThatStored, 0u);
}

TEST(CopyOnWrite, ChangedMemoryGetsItsOwnImage)
{
    const Program original = straightLine();
    Program prog = original;
    prog.memInit.emplace_back(7, 42);
    prog.finalize();
    EXPECT_NE(prog.initialMemory().data(),
              original.initialMemory().data());
    EXPECT_EQ(ExecContext(prog).readMem(7), 42);
    EXPECT_EQ(ExecContext(original).readMem(7), 0);
}

TEST(CopyOnWrite, PartialLastPageAndNegativeAddressesWrap)
{
    // 1000 words: not a power of two, and the last page is partial
    ProgramBuilder b("pages", 1000);
    b.newProc("main");
    b.emit(makeMovImm(1, 999));
    b.emit(makeMovImm(2, 11));
    b.emit(makeStore(1, 2, 0)); // last word
    b.emit(makeMovImm(1, -1));
    b.emit(makeMovImm(2, 22));
    b.emit(makeStore(1, 2, -1)); // -2 wraps to word 998
    b.emit(makeMovImm(1, 511));
    b.emit(makeMovImm(2, 33));
    b.emit(makeStore(1, 2, 0)); // last word of page 0
    b.emit(makeStore(1, 2, 1)); // first word of page 1
    b.emit(makeLoad(3, 1, 489)); // word 1000 wraps to word 0
    b.emit(makeHalt());
    Program prog = b.build();
    prog.memInit.emplace_back(0, 5);
    prog.finalize();
    ExecContext ctx(prog);
    while (!ctx.halted())
        ctx.step();
    EXPECT_EQ(ctx.readMem(999), 11);
    EXPECT_EQ(ctx.readMem(998), 22);
    EXPECT_EQ(ctx.readMem(511), 33);
    EXPECT_EQ(ctx.readMem(512), 33);
    EXPECT_EQ(ctx.intReg(3), 5);
    EXPECT_EQ(ExecContext(prog).readMem(999), 0);
}

TEST(CopyOnWrite, ConcurrentInterpretersOfOneProgramAgree)
{
    workloads::WorkloadParams wp;
    wp.repDivisor = 40;
    for (const char *name : {"specfp", "mcf", "phased"}) {
        // the image is built by whichever thread gets there first
        const Program prog = workloads::generate(name, wp);
        constexpr int nthreads = 4;
        std::vector<std::unique_ptr<ExecContext>> ctxs(nthreads);
        std::vector<std::thread> pool;
        for (int t = 0; t < nthreads; t++) {
            pool.emplace_back([&, t] {
                ctxs[t] = std::make_unique<ExecContext>(prog);
                for (int i = 0; i < 50000 && !ctxs[t]->halted(); i++)
                    ctxs[t]->step();
            });
        }
        for (auto &th : pool)
            th.join();
        const ExecContext &ref = *ctxs[0];
        for (int t = 1; t < nthreads; t++) {
            const ExecContext &c = *ctxs[t];
            EXPECT_EQ(c.instsExecuted(), ref.instsExecuted()) << name;
            for (int r = 0; r < numIntArchRegs; r++)
                EXPECT_EQ(c.intReg(r), ref.intReg(r)) << name << " r" << r;
            for (int r = 0; r < numFpArchRegs; r++)
                EXPECT_EQ(c.fpReg(r), ref.fpReg(r)) << name << " f" << r;
            for (std::uint64_t w = 0; w < prog.memWords; w++)
                ASSERT_EQ(c.readMem(w), ref.readMem(w)) << name << " @" << w;
        }
        EXPECT_GT(wordsDiffering(ref, expectedImage(prog)), 0u) << name;
    }
}

TEST(CopyOnWrite, CoreExecIsValidOnEveryCore)
{
    for (const Program &prog : everyFamily()) {
        for (const bool spec : {false, true}) {
            CoreConfig cfg;
            cfg.specFrontEnd = spec;
            Core core(prog, cfg);
            const std::uint64_t committed = core.run(5000);
            const ExecContext &ctx = core.exec();
            // execute-at-fetch: the interpreter is at or ahead of commit
            EXPECT_GE(ctx.instsExecuted(), committed) << prog.name;
            // and in the state a standalone interpreter reaches after
            // as many steps
            ExecContext ref(prog);
            while (ref.instsExecuted() < ctx.instsExecuted())
                ref.step();
            for (int r = 0; r < numIntArchRegs; r++)
                EXPECT_EQ(ctx.intReg(r), ref.intReg(r)) << prog.name;
            for (std::uint64_t w = 0; w < prog.memWords; w++)
                ASSERT_EQ(ctx.readMem(w), ref.readMem(w)) << prog.name;
        }
    }
}

TEST(Program, FinalizeBuildsCfgEdges)
{
    ProgramBuilder b("cfg", 64);
    b.newProc("main");
    b.emit(makeMovImm(1, 0));
    auto d = b.beginIf(makeBeq(1, 0, -1));
    b.emit(makeAddImm(2, 2, 1));
    b.elseBranch(d);
    b.emit(makeAddImm(2, 2, 2));
    b.joinUp(d);
    b.emit(makeHalt());
    const Program prog = b.build();
    const auto &blocks = prog.procs[0].blocks;
    // entry: branch to then, fallthrough to else
    ASSERT_EQ(blocks[0].succs.size(), 2u);
    // join has two predecessors
    EXPECT_EQ(blocks[d.join].preds.size(), 2u);
}

TEST(Program, PcsAreUniqueAndIncreasing)
{
    const Program prog = straightLine();
    std::uint64_t last = 0;
    for (const auto &inst : prog.procs[0].blocks[0].insts) {
        EXPECT_GT(inst.pc, last);
        last = inst.pc;
    }
}

/** Diamond with a loop around it for dominator/loop tests. */
Program
loopDiamond()
{
    ProgramBuilder b("ld", 64);
    b.newProc("main");
    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, 8));
    auto loop = b.beginLoop(1, 2);
    auto d = b.beginIf(makeBeq(1, 0, -1));
    b.emit(makeAddImm(3, 3, 1));
    b.elseBranch(d);
    b.emit(makeAddImm(3, 3, 2));
    b.joinUp(d);
    b.endLoop(loop);
    b.emit(makeHalt());
    return b.build();
}

TEST(Dominators, EntryDominatesEverything)
{
    const Program prog = loopDiamond();
    const auto idom = immediateDominators(prog.procs[0]);
    for (std::size_t bIdx = 0; bIdx < prog.procs[0].blocks.size();
         bIdx++) {
        if (idom[bIdx] < 0)
            continue; // unreachable
        EXPECT_TRUE(dominates(idom, 0, static_cast<int>(bIdx)));
    }
}

TEST(Dominators, BranchArmsDoNotDominateJoin)
{
    const Program prog = loopDiamond();
    const Procedure &proc = prog.procs[0];
    const auto idom = immediateDominators(proc);
    // find the join: a block with two predecessors inside the loop
    for (const auto &block : proc.blocks) {
        if (block.preds.size() == 2) {
            for (int p : block.preds)
                EXPECT_FALSE(dominates(idom, p, block.id) &&
                             proc.blocks[p].preds.size() == 1 &&
                             false);
            // the branch head dominates the join
            EXPECT_TRUE(dominates(idom,
                                  idom[block.id], block.id));
        }
    }
}

TEST(NaturalLoops, FindsSingleLoopWithDiamondBody)
{
    const Program prog = loopDiamond();
    const auto loops = findNaturalLoops(prog.procs[0]);
    ASSERT_EQ(loops.size(), 1u);
    EXPECT_EQ(loops[0].depth, 1);
    // header + then + else + join + latch at least
    EXPECT_GE(loops[0].blocks.size(), 5u);
}

TEST(NaturalLoops, NestingResolved)
{
    ProgramBuilder b("nest", 64);
    b.newProc("main");
    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, 4));
    auto outer = b.beginLoop(1, 2);
    b.emit(makeMovImm(3, 0));
    b.emit(makeMovImm(4, 4));
    auto inner = b.beginLoop(3, 4);
    b.emit(makeAddImm(5, 5, 1));
    b.endLoop(inner);
    b.endLoop(outer);
    b.emit(makeHalt());
    const Program prog = b.build();
    const auto loops = findNaturalLoops(prog.procs[0]);
    ASSERT_EQ(loops.size(), 2u);
    const auto &a = loops[0].blocks.size() > loops[1].blocks.size()
                        ? loops[0]
                        : loops[1];
    const auto &c = loops[0].blocks.size() > loops[1].blocks.size()
                        ? loops[1]
                        : loops[0];
    EXPECT_EQ(a.depth, 1);
    EXPECT_EQ(c.depth, 2);
    ASSERT_EQ(a.children.size(), 1u);
    // exclusive blocks of the outer loop exclude the inner body
    const auto excl = a.exclusiveBlocks(loops);
    for (int blk : excl)
        EXPECT_FALSE(c.contains(blk));
}

TEST(Ddg, RawEdgesTrackLastDef)
{
    ProgramBuilder b("ddg", 64);
    b.newProc("main");
    b.emit(makeMovImm(1, 1));    // 0
    b.emit(makeMovImm(1, 2));    // 1 redefines r1
    b.emit(makeAddImm(2, 1, 0)); // 2 reads r1 -> depends on 1 only
    b.emit(makeHalt());
    const Program prog = b.build();
    const std::vector<const BasicBlock *> blocks = {
        &prog.procs[0].blocks[0]};
    const Ddg ddg = buildDdg(blocks, false);
    ASSERT_EQ(ddg.edges.size(), 1u);
    EXPECT_EQ(ddg.edges[0].from, 1);
    EXPECT_EQ(ddg.edges[0].to, 2);
}

TEST(Ddg, StaticMemoryDependence)
{
    ProgramBuilder b("mem", 64);
    b.newProc("main");
    b.emit(makeMovImm(1, 8));
    b.emit(makeStore(1, 2, 0)); // 1: st [r1]
    b.emit(makeLoad(3, 1, 0));  // 2: ld [r1] same address
    b.emit(makeLoad(4, 1, 4));  // 3: different offset: no edge
    b.emit(makeHalt());
    const Program prog = b.build();
    const std::vector<const BasicBlock *> blocks = {
        &prog.procs[0].blocks[0]};
    const Ddg ddg = buildDdg(blocks, false);
    bool storeToLoad = false, storeToOther = false;
    for (const auto &e : ddg.edges) {
        if (e.from == 1 && e.to == 2)
            storeToLoad = true;
        if (e.from == 1 && e.to == 3)
            storeToOther = true;
    }
    EXPECT_TRUE(storeToLoad);
    EXPECT_FALSE(storeToOther);
}

TEST(Ddg, LoopCarriedDistanceOneEdges)
{
    ProgramBuilder b("carry", 64);
    b.newProc("main");
    b.emit(makeAddImm(1, 1, 1)); // r1 depends on itself across iters
    b.emit(makeAddImm(2, 1, 0)); // same-iteration use
    b.emit(makeHalt());
    const Program prog = b.build();
    const std::vector<const BasicBlock *> blocks = {
        &prog.procs[0].blocks[0]};
    const Ddg ddg = buildDdg(blocks, true);
    bool selfCarried = false;
    for (const auto &e : ddg.edges)
        if (e.from == 0 && e.to == 0 && e.distance == 1)
            selfCarried = true;
    EXPECT_TRUE(selfCarried);
}

TEST(Ddg, CyclicDependenceSetsFindSelfLoopOnly)
{
    ProgramBuilder b("cds", 64);
    b.newProc("main");
    b.emit(makeAddImm(1, 1, 1)); // cyclic
    b.emit(makeAddImm(2, 3, 1)); // r2 from r3: acyclic
    b.emit(makeHalt());
    const Program prog = b.build();
    const std::vector<const BasicBlock *> blocks = {
        &prog.procs[0].blocks[0]};
    const Ddg ddg = buildDdg(blocks, true);
    const auto sets = cyclicDependenceSets(ddg);
    ASSERT_EQ(sets.size(), 1u);
    EXPECT_EQ(sets[0], std::vector<int>{0});
}

TEST(Ddg, LoadLatencyUsesL1Hit)
{
    const StaticInst load = makeLoad(1, 2, 0);
    EXPECT_EQ(defaultCompilerLatency(load, 2), 2);
    const StaticInst add = makeAdd(1, 2, 3);
    EXPECT_EQ(defaultCompilerLatency(add, 2), 1);
}

TEST(Rpo, EntryFirstTopologicalOnDags)
{
    const Program prog = loopDiamond();
    const auto rpo = reversePostOrder(prog.procs[0]);
    ASSERT_FALSE(rpo.empty());
    EXPECT_EQ(rpo.front(), 0);
}

} // namespace
} // namespace siq
