/**
 * @file
 * Cross-module integration and property tests, parameterized over the
 * full benchmark suite:
 *  - functional outputs are invariant across every technique (the
 *    hints may never change semantics);
 *  - hinted runs never deadlock and never raise occupancy;
 *  - a fuzzer that sprays random tag hints over a program still gets
 *    the right answer (hint safety is unconditional);
 *  - the simulator facade produces sane figures.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "ir/exec.hh"
#include "sim/simulator.hh"
#include "sim/technique.hh"

namespace siq
{
namespace
{

workloads::WorkloadParams
tiny()
{
    workloads::WorkloadParams wp;
    wp.repDivisor = 40;
    return wp;
}

class BenchmarkSuite : public ::testing::TestWithParam<std::string>
{};

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BenchmarkSuite,
    ::testing::ValuesIn(workloads::benchmarkNames()),
    [](const auto &info) { return info.param; });

/** Reference memory image after natural completion. */
std::vector<std::int64_t>
referenceImage(const Program &prog)
{
    ExecContext ctx(prog);
    while (!ctx.halted())
        ctx.step();
    std::vector<std::int64_t> image;
    for (std::uint64_t a = 0; a < 64; a++)
        image.push_back(ctx.readMem(a));
    return image;
}

TEST_P(BenchmarkSuite, TechniquesPreserveFunctionalBehaviour)
{
    const Program plain = workloads::generate(GetParam(), tiny());
    const auto ref = referenceImage(plain);

    for (const char *tech : {"noop", "extension", "improved"}) {
        Program prog = workloads::generate(GetParam(), tiny());
        const auto cc =
            sim::findTechnique(tech)->compilerConfig(sim::RunConfig{});
        ASSERT_TRUE(cc.has_value());
        compiler::annotate(prog, *cc);

        Core core(prog, CoreConfig{});
        core.run(1u << 24);
        ASSERT_TRUE(core.done())
            << GetParam() << " did not finish under " << tech;
        for (std::uint64_t a = 0; a < 64; a++)
            ASSERT_EQ(core.exec().readMem(a),
                      ref[static_cast<std::size_t>(a)])
                << GetParam() << "/" << tech << " word " << a;
    }
}

TEST_P(BenchmarkSuite, HintsNeverRaiseOccupancy)
{
    const Program plain = workloads::generate(GetParam(), tiny());
    Core base(plain, CoreConfig{});
    base.run(1u << 24);
    const double baseOcc =
        static_cast<double>(base.iqEvents().occupancySum) /
        static_cast<double>(base.iqEvents().cycles);

    Program hinted = workloads::generate(GetParam(), tiny());
    const auto cc =
        sim::findTechnique("noop")->compilerConfig(sim::RunConfig{});
    compiler::annotate(hinted, *cc);
    Core noop(hinted, CoreConfig{});
    noop.run(1u << 24);
    const double noopOcc =
        static_cast<double>(noop.iqEvents().occupancySum) /
        static_cast<double>(noop.iqEvents().cycles);
    EXPECT_LE(noopOcc, baseOcc * 1.02 + 0.5) << GetParam();
}

TEST_P(BenchmarkSuite, AdaptiveControllersRunToCompletion)
{
    for (const char *tech : {"abella", "folegnani"}) {
        sim::RunConfig cfg;
        cfg.workload = tiny();
        cfg.warmupInsts = 2000;
        cfg.measureInsts = 40000;
        const auto result = sim::runOne(GetParam(), tech, cfg);
        EXPECT_GT(result.ipc(), 0.01) << tech;
        EXPECT_LE(result.ipc(), 8.0);
    }
}

TEST_P(BenchmarkSuite, RandomHintFuzzIsSafe)
{
    // spraying arbitrary tag hints over every instruction must never
    // deadlock the machine or change results: the new_head mechanism
    // only ever throttles dispatch
    Program prog = workloads::generate(GetParam(), tiny());
    const auto ref = referenceImage(prog);

    Rng rng(0xF00D + prog.instCount());
    for (auto &proc : prog.procs) {
        for (auto &block : proc.blocks) {
            for (auto &inst : block.insts) {
                if (rng.chance(0.15)) {
                    inst.tagHint = static_cast<std::uint16_t>(
                        rng.range(1, 80));
                }
            }
        }
    }
    prog.finalize();
    Core core(prog, CoreConfig{});
    core.run(1u << 24);
    ASSERT_TRUE(core.done()) << GetParam() << " fuzz deadlocked";
    for (std::uint64_t a = 0; a < 64; a++)
        ASSERT_EQ(core.exec().readMem(a),
                  ref[static_cast<std::size_t>(a)])
            << GetParam() << " fuzz word " << a;
}

TEST_P(BenchmarkSuite, FacadeProducesCoherentResults)
{
    sim::RunConfig cfg;
    cfg.workload = tiny();
    cfg.warmupInsts = 2000;
    cfg.measureInsts = 30000;
    const auto base = sim::runOne(GetParam(), "baseline", cfg);
    const auto noop = sim::runOne(GetParam(), "noop", cfg);

    EXPECT_GT(base.ipc(), 0.05);
    EXPECT_GE(noop.stats.hintsApplied, 0u);
    EXPECT_GE(base.avgIqOccupancy(), noop.avgIqOccupancy() - 1.0);
    EXPECT_GE(noop.iqBanksOffFraction(),
              base.iqBanksOffFraction() - 0.02);

    const auto cmp = sim::comparePower(base, noop);
    EXPECT_GE(cmp.iqDynamicSaving, -0.05);
    EXPECT_LE(cmp.iqDynamicSaving, 1.0);
    EXPECT_GE(cmp.iqStaticSaving, -0.05);
    EXPECT_GE(cmp.nonEmptySaving, 0.0);
}

/** Sweep structural parameters; results must stay functional. */
struct SweepConfig
{
    int iqSize;
    int bankSize;
    int width;
};

class StructuralSweep
    : public ::testing::TestWithParam<SweepConfig>
{};

INSTANTIATE_TEST_SUITE_P(
    Geometry, StructuralSweep,
    ::testing::Values(SweepConfig{16, 4, 4}, SweepConfig{32, 8, 8},
                      SweepConfig{64, 8, 4}, SweepConfig{80, 10, 8},
                      SweepConfig{80, 8, 8}, SweepConfig{128, 16, 8}),
    [](const auto &info) {
        return "iq" + std::to_string(info.param.iqSize) + "bank" +
               std::to_string(info.param.bankSize) + "w" +
               std::to_string(info.param.width);
    });

TEST_P(StructuralSweep, GzipFunctionalUnderGeometry)
{
    const auto &p = GetParam();
    CoreConfig cfg;
    cfg.iq.numEntries = p.iqSize;
    cfg.iq.bankSize = p.bankSize;
    cfg.fetchWidth = cfg.dispatchWidth = cfg.issueWidth =
        cfg.commitWidth = p.width;

    const Program prog = workloads::generate("gzip", tiny());
    const auto ref = referenceImage(prog);
    Core core(prog, cfg);
    core.run(1u << 24);
    ASSERT_TRUE(core.done());
    for (std::uint64_t a = 0; a < 16; a++)
        EXPECT_EQ(core.exec().readMem(a),
                  ref[static_cast<std::size_t>(a)]);
}

TEST(PaperConfig, DefaultsMatchTable1)
{
    // the machine of the paper's Table 1, which `siqsim table table1`
    // prints beside the paper's values
    const CoreConfig cfg;
    EXPECT_EQ(cfg.fetchWidth, 8);
    EXPECT_EQ(cfg.dispatchWidth, 8);
    EXPECT_EQ(cfg.commitWidth, 8);
    EXPECT_EQ(cfg.bpred.gshareEntries, 2048u);
    EXPECT_EQ(cfg.bpred.bimodalEntries, 2048u);
    EXPECT_EQ(cfg.bpred.selectorEntries, 1024u);
    EXPECT_EQ(cfg.bpred.btbEntries, 2048u);
    EXPECT_EQ(cfg.bpred.btbAssoc, 4u);
    const auto cache = [](const CacheConfig &c, std::uint32_t kb,
                          std::uint32_t assoc, std::uint32_t line,
                          int latency) {
        EXPECT_EQ(c.sizeBytes, kb * 1024) << c.name;
        EXPECT_EQ(c.assoc, assoc) << c.name;
        EXPECT_EQ(c.lineBytes, line) << c.name;
        EXPECT_EQ(c.hitLatency, latency) << c.name;
    };
    cache(cfg.mem.l1i, 64, 2, 32, 1);
    cache(cfg.mem.l1d, 64, 4, 32, 2);
    cache(cfg.mem.l2, 512, 8, 64, 10);
    EXPECT_EQ(cfg.mem.memLatency, 50);
    EXPECT_EQ(cfg.robSize, 128);
    EXPECT_EQ(cfg.iq.numEntries, 80);
    EXPECT_EQ(cfg.intRegs.numPhys, 112);
    EXPECT_EQ(cfg.intRegs.numPhys / cfg.intRegs.bankSize, 14);
    EXPECT_EQ(cfg.fpRegs.numPhys, 112);
    EXPECT_EQ(cfg.fuCounts[static_cast<int>(FuClass::IntAlu)], 6);
    EXPECT_EQ(cfg.fuCounts[static_cast<int>(FuClass::IntMul)], 3);
    EXPECT_EQ(cfg.fuCounts[static_cast<int>(FuClass::FpAlu)], 4);
    EXPECT_EQ(cfg.fuCounts[static_cast<int>(FuClass::FpMulDiv)], 2);
}

} // namespace
} // namespace siq
