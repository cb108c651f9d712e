/**
 * @file
 * Tests for the workload-family subsystem (workloads/family.hh,
 * DESIGN.md §10): registry contents, WorkloadSpec parsing and
 * canonicalization, the structured spec-JSON round trip, the engine
 * integration (canonical cell identity, per-parameter-set caching,
 * shard-merge byte-identity with embedded parameters), the
 * six-technique coverage of the new families, and the phased
 * family's per-phase IQ occupancy split.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "sim/checkpoint.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "sim/technique.hh"
#include "workloads/family.hh"

namespace siq
{
namespace
{

namespace fs = std::filesystem;
using workloads::WorkloadSpec;

/** Per-test scratch directory, removed on destruction. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path(fs::temp_directory_path() /
               ("siq_family_test_" + tag + "_" +
                std::to_string(::getpid())))
    {
        fs::remove_all(path);
    }

    ~ScratchDir() { fs::remove_all(path); }

    const fs::path path;
};

/** Immediate-field sum: a cheap structural observable that moves
 *  when loop bounds (scale, boosts) change. */
std::uint64_t
immSum(const Program &prog)
{
    std::uint64_t sum = 0;
    for (const auto &proc : prog.procs) {
        for (const auto &block : proc.blocks) {
            for (const auto &inst : block.insts)
                sum += static_cast<std::uint64_t>(inst.imm);
        }
    }
    return sum;
}

std::string
jsonOf(sim::SweepResult s)
{
    sim::canonicalize(s);
    std::ostringstream os;
    sim::writeJson(os, s);
    return os.str();
}

TEST(FamilyRegistry, PaperBenchmarksFirstThenParameterized)
{
    const auto names = workloads::familyNames();
    const auto &paper = workloads::benchmarkNames();
    ASSERT_GE(names.size(), paper.size() + 3);
    // the paper's eleven lead, in figure order, so existing consumers
    // of the registration order see no change
    for (std::size_t i = 0; i < paper.size(); i++)
        EXPECT_EQ(names[i], paper[i]);
    for (const char *fam : {"specfp", "server", "phased"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), fam),
                  names.end())
            << fam;
        const auto *def = workloads::findFamily(fam);
        ASSERT_NE(def, nullptr) << fam;
        EXPECT_FALSE(def->params.empty()) << fam;
        EXPECT_FALSE(def->summary.empty()) << fam;
    }
    // the paper profiles are parameterless families
    for (const auto &name : paper) {
        const auto *def = workloads::findFamily(name);
        ASSERT_NE(def, nullptr) << name;
        EXPECT_TRUE(def->params.empty()) << name;
    }
}

TEST(WorkloadSpecParse, PlainAndParameterized)
{
    const auto plain = WorkloadSpec::parse("gzip");
    EXPECT_EQ(plain.family, "gzip");
    EXPECT_TRUE(plain.params.empty());
    EXPECT_EQ(plain.canonical(), "gzip");

    const auto p = WorkloadSpec::parse("phased:period=60000:duty=20");
    EXPECT_EQ(p.family, "phased");
    ASSERT_EQ(p.params.size(), 2u);
    EXPECT_EQ(p.params[0],
              (std::pair<std::string, std::int64_t>{"period", 60000}));
    EXPECT_EQ(p.params[1],
              (std::pair<std::string, std::int64_t>{"duty", 20}));
}

TEST(WorkloadSpecParse, CanonicalizationIsOrderAndDefaultBlind)
{
    // overrides reorder into declaration order
    EXPECT_EQ(workloads::canonicalWorkload("phased:duty=20:period=60000"),
              "phased:period=60000:duty=20");
    // values equal to the default elide
    EXPECT_EQ(workloads::canonicalWorkload("phased:period=4000"),
              "phased");
    EXPECT_EQ(workloads::canonicalWorkload(
                  "server:hotPct=0:probeDepth=4"),
              "server:probeDepth=4");
    // a hand-built spec normalizes the same way a parsed one does
    WorkloadSpec hand;
    hand.family = "phased";
    hand.params = {{"duty", 20}, {"period", 4000}};
    EXPECT_EQ(hand.canonical(), "phased:duty=20");
}

TEST(WorkloadSpecParse, RejectsBadSpecs)
{
    // unknown family: the message lists every registered family
    try {
        WorkloadSpec::parse("oltp:probeDepth=3");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        for (const auto &name : workloads::familyNames())
            EXPECT_NE(msg.find(name), std::string::npos) << name;
    }
    // unknown parameter: the message lists the family's parameters
    try {
        WorkloadSpec::parse("phased:cadence=7");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("period"),
                  std::string::npos);
    }
    for (const char *bad :
         {"phased:period", "phased:=5", "phased:period=",
          "phased:period=abc", "phased:period=20e3",
          "phased:period=4000:period=4000", "phased:period=63",
          "phased:duty=96", "", "gzip:scale=2"})
        EXPECT_THROW(WorkloadSpec::parse(bad), FatalError) << bad;
}

TEST(WorkloadSpecJson, ParameterizedSpecRoundTripsExactly)
{
    sim::SweepSpec spec;
    spec.benchmarks = {"gzip", "phased:period=60000:duty=20",
                       "server:footprintLog2=16", "specfp"};
    spec.techniques = {"baseline", "noop"};
    spec.seeds = 2;
    spec.base.workload.repDivisor = 40;

    std::stringstream ss;
    sim::writeSpecJson(ss, spec);
    // the structured form carries the parameters
    EXPECT_NE(ss.str().find("{\"family\":\"phased\",\"params\":"
                            "{\"period\":60000,\"duty\":20}}"),
              std::string::npos)
        << ss.str();

    const sim::SweepSpec back = sim::readSpecJson(ss);
    EXPECT_EQ(back.benchmarks, spec.benchmarks);
    EXPECT_EQ(sim::toJson(back), sim::toJson(spec));
}

TEST(WorkloadSpecJson, AcceptsPlainStringsAndNormalizes)
{
    // hand-written specs may use plain strings and any override
    // order; reading canonicalizes both
    std::stringstream hand;
    sim::SweepSpec tmpl;
    tmpl.benchmarks = {"gzip"};
    tmpl.techniques = {"baseline"};
    std::stringstream proto;
    sim::writeSpecJson(proto, tmpl);
    std::string text = proto.str();
    const std::string needle = "{\"family\":\"gzip\"}";
    const auto at = text.find(needle);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, needle.size(),
                 "\"phased:duty=20:period=4000\"");
    hand << text;
    const sim::SweepSpec back = sim::readSpecJson(hand);
    ASSERT_EQ(back.benchmarks.size(), 1u);
    EXPECT_EQ(back.benchmarks[0], "phased:duty=20");
}

TEST(WorkloadSpecJson, UnknownFamilyOrParamIsFatal)
{
    sim::SweepSpec spec;
    spec.benchmarks = {"gzip"};
    spec.techniques = {"baseline"};
    std::stringstream os;
    sim::writeSpecJson(os, spec);
    for (const auto &[from, to] :
         std::vector<std::pair<std::string, std::string>>{
             {"{\"family\":\"gzip\"}", "{\"family\":\"oltp\"}"},
             {"{\"family\":\"gzip\"}",
              "{\"family\":\"phased\",\"params\":{\"cadence\":7}}"},
             {"{\"family\":\"gzip\"}",
              "{\"family\":\"phased\",\"params\":{\"period\":63}}"}}) {
        std::string text = os.str();
        const auto at = text.find(from);
        ASSERT_NE(at, std::string::npos);
        text.replace(at, from.size(), to);
        std::stringstream is(text);
        EXPECT_THROW(sim::readSpecJson(is), FatalError) << to;
    }
}

/** A small parameterized grid shared by the engine-level tests. */
sim::SweepSpec
familySpec()
{
    sim::SweepSpec spec;
    spec.benchmarks = {"phased:period=2000:duty=30", "gzip",
                       "server:footprintLog2=14"};
    spec.techniques = {"baseline", "noop"};
    spec.base.workload.repDivisor = 40;
    spec.base.warmupInsts = 2000;
    spec.base.measureInsts = 10000;
    spec.jobs = 2;
    return spec;
}

TEST(FamilySweep, CellsCarryCanonicalWorkloadNames)
{
    auto spec = familySpec();
    // a non-canonical spelling (reordered, default-valued override)
    spec.benchmarks[0] = "phased:duty=30:period=2000:memStride=8209";
    sim::ExperimentRunner runner;
    const auto result = runner.run(spec);
    EXPECT_EQ(result.benchmarks[0], "phased:period=2000:duty=30");
    EXPECT_EQ(result.cells[0].benchmark, "phased:period=2000:duty=30");
    // distinct parameter sets are distinct workload-cache entries,
    // shared across the technique axis
    EXPECT_EQ(result.cache.workloadBuilds, 3u);
    EXPECT_EQ(result.cache.workloadHits, 3u);
}

TEST(FamilySweep, UnknownFamilyFailsFastWithTheRegistryList)
{
    auto spec = familySpec();
    spec.benchmarks.push_back("oltp");
    sim::ExperimentRunner runner;
    EXPECT_THROW(runner.run(spec), FatalError);
}

TEST(FamilySweep, ShardMergeIsByteIdenticalWithEmbeddedParams)
{
    // the headline distribution guarantee must survive parameterized
    // workloads: spec JSON -> 2 sharded runs -> merge == unsharded
    auto spec = familySpec();
    std::stringstream ss;
    sim::writeSpecJson(ss, spec);
    const sim::SweepSpec loaded = sim::readSpecJson(ss);

    sim::ExperimentRunner plain;
    const std::string unsharded = jsonOf(plain.run(loaded));

    ScratchDir dir("param_shards");
    for (int s = 0; s < 2; s++) {
        sim::ExperimentRunner runner;
        sim::runWithCheckpoints(runner, loaded, {s, 2}, dir.path);
    }
    const std::string merged = jsonOf(sim::mergeCheckpoints({dir.path}));
    EXPECT_EQ(unsharded, merged);
}

TEST(FamilySweep, NewFamiliesRunUnderAllSixTechniques)
{
    // acceptance: every new family simulates under every built-in
    // technique through the same figure-sweep path
    sim::SweepSpec spec;
    spec.benchmarks = {"specfp", "server", "phased"};
    spec.techniques = sim::techniqueNames();
    spec.base.workload.repDivisor = 40;
    spec.base.warmupInsts = 2000;
    spec.base.measureInsts = 8000;
    spec.jobs = 2;
    ASSERT_EQ(spec.techniques.size(), 6u);

    sim::ExperimentRunner runner;
    const auto result = runner.run(spec);
    for (std::size_t t = 0; t < spec.techniques.size(); t++) {
        for (std::size_t b = 0; b < spec.benchmarks.size(); b++) {
            const auto &cell = result.at(t, b);
            EXPECT_GT(cell.stats.committed, 0u)
                << spec.techniques[t] << "/" << spec.benchmarks[b];
            EXPECT_GT(cell.iq.cycles, 0u)
                << spec.techniques[t] << "/" << spec.benchmarks[b];
        }
    }
}

TEST(FamilyRegistry, ScopedFamilyRegistersAndUnregisters)
{
    // process-local families behave exactly like built-ins for the
    // scope's lifetime
    ASSERT_EQ(workloads::findFamily("gzip-x2"), nullptr);
    {
        workloads::FamilyDef def;
        def.name = "gzip-x2";
        def.summary = "gzip at a parameterized scale";
        def.params = {{"boost", 2, 1, 4, "extra scale factor"}};
        def.generate = [](const workloads::WorkloadParams &wp,
                          const workloads::FamilyParams &fp) {
            workloads::WorkloadParams scaled = wp;
            scaled.scale = wp.scale * static_cast<int>(fp.at("boost"));
            return workloads::genGzip(scaled);
        };
        workloads::ScopedFamily scoped(std::move(def));

        ASSERT_NE(workloads::findFamily("gzip-x2"), nullptr);
        EXPECT_EQ(workloads::canonicalWorkload("gzip-x2:boost=2"),
                  "gzip-x2");
        const Program a = workloads::generate(
            "gzip-x2:boost=1", {1, 40, 12345});
        const Program b = workloads::generate(
            "gzip-x2:boost=4", {1, 40, 12345});
        EXPECT_GT(b.instCount(), 0u);
        EXPECT_NE(immSum(a), immSum(b));
    }
    EXPECT_EQ(workloads::findFamily("gzip-x2"), nullptr);
    EXPECT_THROW(workloads::generate("gzip-x2", {}), FatalError);
}

TEST(PhasedProfile, OccupancySwingsAcrossPhases)
{
    // acceptance: the phased family must show measurably different IQ
    // occupancy across its phases. Sample the occupancy counters in
    // fixed committed-instruction windows; windows inside the
    // high-ILP phase drain the queue, windows inside the serial chase
    // fill it (observed ~17 vs ~40 entries on the default machine).
    workloads::WorkloadParams wp;
    wp.repDivisor = 20;
    const Program prog = workloads::generate("phased", wp);
    Core core(prog, CoreConfig{});

    std::vector<double> occ;
    std::uint64_t lastSum = 0, lastCycles = 0;
    for (int w = 0; w < 24 && !core.done(); w++) {
        core.run(4000);
        const auto &iq = core.iqEvents();
        const std::uint64_t cycles = iq.cycles - lastCycles;
        if (cycles == 0)
            break;
        occ.push_back(
            static_cast<double>(iq.occupancySum - lastSum) /
            static_cast<double>(cycles));
        lastSum = iq.occupancySum;
        lastCycles = iq.cycles;
    }
    ASSERT_GE(occ.size(), 8u) << "phased ended before both phases ran";
    const double lo = *std::min_element(occ.begin(), occ.end());
    const double hi = *std::max_element(occ.begin(), occ.end());
    EXPECT_GT(lo, 0.0);
    EXPECT_GT(hi, 1.5 * lo)
        << "phases are indistinguishable: min " << lo << ", max " << hi;
}

TEST(PhasedProfile, DutyShiftsTheOccupancyMix)
{
    // more time in the serial phase => higher average occupancy and
    // lower IPC: the parameter visibly steers the dynamic profile
    auto runAvg = [](const std::string &spec) {
        workloads::WorkloadParams wp;
        wp.repDivisor = 40;
        const Program prog = workloads::generate(spec, wp);
        Core core(prog, CoreConfig{});
        core.run(1u << 22);
        return std::pair(core.stats().ipc(),
                         static_cast<double>(
                             core.iqEvents().occupancySum) /
                             static_cast<double>(
                                 core.iqEvents().cycles + 1));
    };
    const auto [ipcHighIlp, occHighIlp] = runAvg("phased:duty=90");
    const auto [ipcMemory, occMemory] = runAvg("phased:duty=10");
    EXPECT_GT(ipcHighIlp, 2.0 * ipcMemory);
    EXPECT_GT(occMemory, occHighIlp);
}

} // namespace
} // namespace siq
