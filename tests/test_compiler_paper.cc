/**
 * @file
 * Golden tests taken directly from the paper's worked examples:
 *  - figure 1: the 6-instruction basic block runs full speed with
 *    only 2 IQ entries, and the limited queue causes 10 wake-ups
 *    against the baseline's 18;
 *  - figure 3: the DAG analysis needs 4 entries;
 *  - figure 4: the loop equations give b = a(i+1), c,d = a(i+2),
 *    e,f = a(i+3) and 15 IQ entries.
 */

#include <gtest/gtest.h>

#include "compiler/loop_analysis.hh"
#include "compiler/pseudo_iq.hh"
#include "ir/ddg.hh"

namespace siq::compiler
{
namespace
{

PseudoInst
alu()
{
    PseudoInst pi;
    pi.latency = 1;
    pi.fu = FuClass::IntAlu;
    return pi;
}

/**
 * Figure 1: a,b independent; c<-a, d<-b, e<-{c,d}, f<-{b,d}
 * (add/add/mul/mul/add/add; all sources of a and b already
 * available).
 */
struct Fig1
{
    std::vector<PseudoInst> insts;
    std::vector<PseudoDep> deps;

    Fig1()
    {
        PseudoInst mul = alu();
        mul.fu = FuClass::IntMul;
        // the paper's example assumes one-cycle execution for every
        // instruction ("each instruction takes one cycle to execute")
        mul.latency = 1;
        insts = {alu(), alu(), mul, mul, alu(), alu()};
        deps = {{0, 2}, {1, 3}, {2, 4}, {3, 4}, {1, 5}, {3, 5}};
    }
};

TEST(PaperFigure1, TwoEntriesRunFullSpeed)
{
    Fig1 fig;
    PseudoIqConfig cfg;
    // paper: dispatch width 8, plenty of units
    const int unconstrained =
        simulatePseudoIq(fig.insts, fig.deps, cfg, {}, cfg.iqSize)
            .drainCycles;
    const int limited =
        simulatePseudoIq(fig.insts, fig.deps, cfg, {}, 2).drainCycles;
    EXPECT_EQ(unconstrained, limited)
        << "the paper's figure 1(d): limiting to 2 entries causes "
           "no slowdown";
    EXPECT_EQ(
        PseudoIqSequence(fig.insts, fig.deps, cfg).minimalRange().range,
        2);
}

TEST(PaperFigure1, PairsIssueInConsecutiveCycles)
{
    Fig1 fig;
    PseudoIqConfig cfg;
    const auto res =
        simulatePseudoIq(fig.insts, fig.deps, cfg, {}, 2);
    // a,b in one cycle; c,d next; e,f last (figure 1(d))
    EXPECT_EQ(res.issueCycle[0], res.issueCycle[1]);
    EXPECT_EQ(res.issueCycle[2], res.issueCycle[3]);
    EXPECT_EQ(res.issueCycle[4], res.issueCycle[5]);
    EXPECT_EQ(res.issueCycle[2], res.issueCycle[0] + 1);
    EXPECT_EQ(res.issueCycle[4], res.issueCycle[2] + 1);
}

/**
 * Figure 3: six instructions a..f; a issues alone, then b,d, then
 * c,e,f; the block needs 4 entries.
 */
struct Fig3
{
    std::vector<PseudoInst> insts;
    std::vector<PseudoDep> deps;

    Fig3()
    {
        insts.assign(6, alu());
        // a -> b, a -> d (iteration 1: b and d issue)
        // b -> c, d -> e, d -> f (iteration 2: c, e, f issue)
        deps = {{0, 1}, {0, 3}, {1, 2}, {3, 4}, {3, 5}};
    }
};

TEST(PaperFigure3, IssueWavesMatchTheFigure)
{
    Fig3 fig;
    PseudoIqConfig cfg;
    const auto res = simulatePseudoIq(fig.insts, fig.deps, cfg, {},
                                      cfg.iqSize);
    // iteration 0: a; iteration 1: b, d; iteration 2: c, e, f
    EXPECT_EQ(res.issueCycle[1], res.issueCycle[0] + 1);
    EXPECT_EQ(res.issueCycle[3], res.issueCycle[0] + 1);
    EXPECT_EQ(res.issueCycle[2], res.issueCycle[0] + 2);
    EXPECT_EQ(res.issueCycle[4], res.issueCycle[0] + 2);
    EXPECT_EQ(res.issueCycle[5], res.issueCycle[0] + 2);
}

TEST(PaperFigure3, NeedsFourEntries)
{
    Fig3 fig;
    PseudoIqConfig cfg;
    // the paper's per-cycle counting: iteration 1 spans b..d (3),
    // iteration 2 spans c..f (4)
    const auto res = simulatePseudoIq(fig.insts, fig.deps, cfg, {},
                                      cfg.iqSize);
    EXPECT_EQ(res.entriesNeeded, 4);
    // and the minimal non-degrading range agrees
    EXPECT_EQ(
        PseudoIqSequence(fig.insts, fig.deps, cfg).minimalRange().range,
        4);
}

/**
 * Figure 4: loop body a..f with a depending on itself across
 * iterations: a(i) <- a(i-1); b <- a; c <- b; d <- b; e <- d; f <- c.
 * All latencies 1.
 */
Ddg
fig4Ddg(std::vector<StaticInst> &storage)
{
    // the Ddg only reads latencies through its nodes, so synthesize
    // instructions directly
    storage.assign(6, makeAddImm(1, 1, 1));
    Ddg ddg;
    for (int i = 0; i < 6; i++)
        ddg.addNode({&storage[static_cast<std::size_t>(i)], 0, i, 1});
    ddg.addEdge(0, 0, 1, 1); // a -> a, next iteration
    ddg.addEdge(0, 1, 1, 0); // b <- a
    ddg.addEdge(1, 2, 1, 0); // c <- b
    ddg.addEdge(1, 3, 1, 0); // d <- b
    ddg.addEdge(3, 4, 1, 0); // e <- d
    ddg.addEdge(2, 5, 1, 0); // f <- c
    return ddg;
}

TEST(PaperFigure4, EquationsMatchTheWorkedExample)
{
    std::vector<StaticInst> storage;
    const Ddg ddg = fig4Ddg(storage);
    const auto cds = analyzeCds(ddg);
    ASSERT_TRUE(cds.has_value());
    EXPECT_NEAR(cds->period, 1.0, 1e-3);
    EXPECT_EQ(cds->anchor, 0) << "a is the cyclic dependence set";
    // figure 4(c): b = a(i+1); c,d = a(i+2); e,f = a(i+3)
    EXPECT_EQ(cds->iterationOffset[1], 1);
    EXPECT_EQ(cds->iterationOffset[2], 2);
    EXPECT_EQ(cds->iterationOffset[3], 2);
    EXPECT_EQ(cds->iterationOffset[4], 3);
    EXPECT_EQ(cds->iterationOffset[5], 3);
}

TEST(PaperFigure4, FifteenEntries)
{
    std::vector<StaticInst> storage;
    const Ddg ddg = fig4Ddg(storage);
    const auto cds = analyzeCds(ddg);
    ASSERT_TRUE(cds.has_value());
    // "15 entries need to be available ... e and f from iteration i,
    // 12 instructions from iterations i+1 and i+2, and a from
    // iteration i+3"
    EXPECT_EQ(cds->entries, 15);
}

} // namespace
} // namespace siq::compiler
