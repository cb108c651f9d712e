/**
 * @file
 * Tests for the experiment engine: the technique table, the
 * threaded sweep runner's determinism (bit-identical to serial
 * runOne), exact cache accounting, JSON round-tripping and the CSV
 * export's shape.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/stats.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "sim/technique.hh"
#include "workloads/workloads.hh"

namespace siq
{
namespace
{

const std::vector<std::string> someBenches = {"gzip", "mcf", "vortex"};
const std::vector<std::string> someTechs = {"baseline", "noop",
                                            "abella"};

sim::SweepSpec
smallSpec()
{
    sim::SweepSpec spec;
    spec.benchmarks = someBenches;
    spec.techniques = someTechs;
    spec.base.workload.repDivisor = 8;
    spec.base.warmupInsts = 5000;
    spec.base.measureInsts = 60000;
    return spec;
}

/** Canonical form: byte-level comparisons only see measurements (the
 *  one legitimate run-to-run difference is wall-clock metadata). */
sim::SweepResult
normalized(sim::SweepResult s)
{
    sim::canonicalize(s);
    return s;
}

std::string
jsonOf(const sim::SweepResult &s)
{
    std::ostringstream os;
    sim::writeJson(os, s);
    return os.str();
}

TEST(TechniqueTable, BuiltinsAreRegistered)
{
    const auto names = sim::techniqueNames();
    for (const char *name : {"baseline", "noop", "extension",
                             "improved", "abella", "folegnani"}) {
        EXPECT_NE(sim::findTechnique(name), nullptr) << name;
        bool listed = false;
        for (const auto &n : names)
            listed = listed || n == name;
        EXPECT_TRUE(listed) << name;
    }
    EXPECT_EQ(sim::findTechnique("no-such-technique"), nullptr);
}

TEST(TechniqueTable, FactoriesMatchLegacyMapping)
{
    const auto factoryOf = [](const char *name) {
        return sim::findTechnique(name)->compilerConfig;
    };
    EXPECT_EQ(factoryOf("baseline"), nullptr);
    sim::RunConfig cfg;
    const auto noop = factoryOf("noop")(cfg);
    ASSERT_TRUE(noop.has_value());
    EXPECT_EQ(noop->scheme, compiler::HintScheme::Noop);
    EXPECT_FALSE(noop->interprocFu);
    const auto improved = factoryOf("improved")(cfg);
    ASSERT_TRUE(improved.has_value());
    EXPECT_EQ(improved->scheme, compiler::HintScheme::Tag);
    EXPECT_TRUE(improved->interprocFu);
}

TEST(TechniqueTable, CompilerMirrorsTheMachine)
{
    // every CoreConfig field the compiler's pseudo IQ models: changing
    // it must change the machine the hints are sized for
    struct Mirror
    {
        const char *field;
        int &(*core)(sim::RunConfig &);
        int (*machine)(const compiler::PseudoIqConfig &);
    };
#define MIRROR(coreField, machineField)                                  \
    {#coreField,                                                         \
     [](sim::RunConfig &c) -> int & { return c.core.coreField; },        \
     [](const compiler::PseudoIqConfig &m) { return m.machineField; }}
    const Mirror mirrors[] = {
        MIRROR(issueWidth, issueWidth),
        MIRROR(dispatchWidth, dispatchWidth),
        MIRROR(iq.numEntries, iqSize),
        MIRROR(mem.l1d.hitLatency, l1dHitLatency),
        MIRROR(fuCounts[1], fuCounts[1]), // IntAlu
        MIRROR(fuCounts[2], fuCounts[2]), // IntMul
        MIRROR(fuCounts[3], fuCounts[3]), // FpAlu
        MIRROR(fuCounts[4], fuCounts[4]), // FpMulDiv
        MIRROR(fuCounts[5], fuCounts[5]), // MemPort
    };
#undef MIRROR
    const auto machine = [](const sim::RunConfig &cfg) {
        return sim::findTechnique("noop")->compilerConfig(cfg)->machine;
    };
    for (const auto &m : mirrors) {
        sim::RunConfig cfg;
        const int before = m.machine(machine(cfg));
        EXPECT_EQ(before, m.core(cfg)) << m.field;
        m.core(cfg) += 2;
        EXPECT_EQ(m.machine(machine(cfg)), before + 2) << m.field;
    }
}

TEST(TechniqueTable, ResizersTakeTheirSizesFromTheCore)
{
    // the resizers start at, and never grow past, the machine's IQ and
    // ROB: changing either changes the limits they hand the core
    sim::RunConfig cfg;
    cfg.core.iq.numEntries = 40;
    cfg.core.robSize = 96;
    const auto abella = sim::findTechnique("abella")->controller(cfg);
    EXPECT_EQ(abella->iqLimit(), 40);
    EXPECT_EQ(abella->robLimit(), 96);
    const auto folegnani =
        sim::findTechnique("folegnani")->controller(cfg);
    EXPECT_EQ(folegnani->iqLimit(), 40);

    // and they step by its bank: after one idle interval on 80
    // entries in banks of 16, folegnani drops one bank and abella two
    cfg.core.iq = {80, 16};
    const auto abella16 = sim::findTechnique("abella")->controller(cfg);
    const auto folegnani16 =
        sim::findTechnique("folegnani")->controller(cfg);
    for (std::uint64_t c = 0; c < cfg.abella.intervalCycles; c++)
        abella16->tick(ResizeSignals{.cycle = c});
    for (std::uint64_t c = 0; c < cfg.folegnani.intervalCycles; c++)
        folegnani16->tick(ResizeSignals{.cycle = c});
    EXPECT_EQ(folegnani16->iqLimit(), 64);
    EXPECT_EQ(abella16->iqLimit(), 48);
}

TEST(ExperimentRunner, ThreadedIsBitIdenticalToSerial)
{
    auto spec = smallSpec();
    spec.jobs = 4;
    sim::ExperimentRunner runner;
    const auto sweep = runner.run(spec);

    ASSERT_EQ(sweep.cells.size(), 9u);
    EXPECT_EQ(sweep.jobsUsed, 4);

    for (std::size_t t = 0; t < spec.techniques.size(); t++) {
        for (std::size_t b = 0; b < spec.benchmarks.size(); b++) {
            const auto serial = sim::runOne(
                spec.benchmarks[b], spec.techniques[t], spec.base);
            const auto &cell = sweep.at(t, b);
            EXPECT_EQ(cell.benchmark, spec.benchmarks[b]);
            EXPECT_EQ(cell.technique, spec.techniques[t]);
            EXPECT_TRUE(sim::identicalMeasurement(serial, cell))
                << spec.benchmarks[b] << "/" << spec.techniques[t];
        }
    }
}

TEST(ExperimentRunner, JobsCountDoesNotChangeResults)
{
    auto spec = smallSpec();
    spec.jobs = 1;
    sim::ExperimentRunner serialRunner;
    const auto serial = serialRunner.run(spec);

    spec.jobs = 7;
    sim::ExperimentRunner threadedRunner;
    const auto threaded = threadedRunner.run(spec);

    ASSERT_EQ(serial.cells.size(), threaded.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); i++) {
        EXPECT_TRUE(sim::identicalMeasurement(serial.cells[i],
                                              threaded.cells[i]))
            << "cell " << i;
    }
}

TEST(ExperimentRunner, WorkloadsAreBuiltExactlyOnce)
{
    auto spec = smallSpec();
    spec.jobs = 4;
    sim::ExperimentRunner runner;
    const auto sweep = runner.run(spec);

    // 9 cells over 3 benchmarks: 3 workload builds, 6 shared hits.
    // Only "noop" compiles, once per benchmark, with no reuse inside
    // one sweep (each (benchmark, config) pair is requested once).
    EXPECT_EQ(sweep.cache.workloadBuilds, 3u);
    EXPECT_EQ(sweep.cache.workloadHits, 6u);
    EXPECT_EQ(sweep.cache.compileBuilds, 3u);
    EXPECT_EQ(sweep.cache.compileHits, 0u);

    // a second identical sweep on the same runner is all cache hits
    const auto again = runner.run(spec);
    EXPECT_EQ(again.cache.workloadBuilds, 3u);
    EXPECT_EQ(again.cache.workloadHits, 15u);
    EXPECT_EQ(again.cache.compileBuilds, 3u);
    EXPECT_EQ(again.cache.compileHits, 3u);
    for (std::size_t i = 0; i < sweep.cells.size(); i++) {
        EXPECT_TRUE(sim::identicalMeasurement(sweep.cells[i],
                                              again.cells[i]));
    }
}

TEST(ExperimentRunner, AblationsArePlainSpecs)
{
    // an ablation is a sweep over a different base config: each
    // compiler knob change builds its own annotated program, and
    // every cell equals a serial runOne with the same config (parser:
    // a family where both knobs change the inserted NOOP count)
    sim::SweepSpec spec;
    spec.benchmarks = {"parser"};
    spec.techniques = {"noop"};
    spec.base.workload.repDivisor = 40;
    spec.base.warmupInsts = 2000;
    spec.base.measureInsts = 20000;
    spec.seeds = 1;
    sim::ExperimentRunner runner;
    const auto cellWith = [&](int minHint, bool elide) {
        sim::SweepSpec s = spec;
        s.base.minHint = minHint;
        s.base.elideRedundant = elide;
        const auto sweep = runner.run(s);
        EXPECT_TRUE(sim::identicalMeasurement(
            sweep.cells[0], sim::runOne("parser", "noop", s.base)))
            << "minHint " << minHint << " elide " << elide;
        return sweep.cells[0].compile.hintNoopsInserted;
    };

    EXPECT_NE(cellWith(4, true), cellWith(16, true));
    EXPECT_EQ(runner.cacheStats().compileBuilds, 2u);
    EXPECT_EQ(runner.cacheStats().compileHits, 0u);

    EXPECT_NE(cellWith(8, true), cellWith(8, false));
    EXPECT_EQ(runner.cacheStats().compileBuilds, 4u);
    EXPECT_EQ(runner.cacheStats().compileHits, 0u);
}

TEST(ExperimentRunner, UnknownTechniqueIsFatal)
{
    auto spec = smallSpec();
    spec.techniques = {"baseline", "definitely-not-registered"};
    sim::ExperimentRunner runner;
    EXPECT_THROW(runner.run(spec), FatalError);
}

TEST(ExperimentRunner, MixSeedIsDeterministicAndSpreads)
{
    using Runner = sim::ExperimentRunner;
    EXPECT_EQ(Runner::mixSeed(1, 2, 3), Runner::mixSeed(1, 2, 3));
    EXPECT_NE(Runner::mixSeed(1, 2, 3), Runner::mixSeed(1, 3, 2));
    EXPECT_NE(Runner::mixSeed(1, 2, 3), Runner::mixSeed(2, 2, 3));
}

TEST(Replication, ReplicaZeroMatchesUnreplicatedSweep)
{
    auto spec = smallSpec();
    sim::ExperimentRunner plainRunner;
    const auto plain = plainRunner.run(spec);
    EXPECT_EQ(plain.seeds, 1);
    EXPECT_TRUE(plain.aggregates.empty());

    spec.seeds = 3;
    spec.jobs = 4;
    sim::ExperimentRunner runner;
    const auto rep = runner.run(spec);
    EXPECT_EQ(rep.seeds, 3);
    ASSERT_EQ(rep.cells.size(), plain.cells.size());
    ASSERT_EQ(rep.aggregates.size(), rep.cells.size());
    for (std::size_t i = 0; i < rep.cells.size(); i++) {
        EXPECT_TRUE(sim::identicalMeasurement(plain.cells[i],
                                              rep.cells[i]))
            << "replica 0 must be the configured-seed run, cell " << i;
        EXPECT_EQ(rep.aggregates[i].n, 3u);
    }
}

TEST(Replication, AggregatesMatchSerialRunOneFolds)
{
    sim::SweepSpec spec;
    spec.benchmarks = {"gzip"};
    spec.techniques = {"baseline", "noop"};
    spec.base.workload.repDivisor = 40;
    spec.base.warmupInsts = 2000;
    spec.base.measureInsts = 20000;
    spec.seeds = 3;
    spec.jobs = 4;
    sim::ExperimentRunner runner;
    const auto sweep = runner.run(spec);

    for (std::size_t t = 0; t < spec.techniques.size(); t++) {
        stats::RunningStats cycles, ipc, broadcasts;
        for (std::size_t r = 0; r < 3; r++) {
            sim::RunConfig cfg = spec.base;
            if (r > 0) {
                cfg.workload.seed = sim::ExperimentRunner::mixSeed(
                    cfg.workload.seed, r, 0);
            }
            const auto run = sim::runOne("gzip", spec.techniques[t], cfg);
            cycles.sample(static_cast<double>(run.stats.cycles));
            broadcasts.sample(static_cast<double>(run.iq.broadcasts));
            ipc.sample(run.ipc());
        }
        const auto &agg = sweep.aggAt(t, 0);
        // same fold order, same accumulator: bit-exact agreement
        EXPECT_EQ(agg.stats_cycles.mean, cycles.mean());
        EXPECT_EQ(agg.stats_cycles.stddev, cycles.stddev());
        EXPECT_EQ(agg.stats_cycles.ci95, cycles.ci95());
        EXPECT_EQ(agg.iq_broadcasts.mean, broadcasts.mean());
        EXPECT_EQ(agg.ipc.mean, ipc.mean());
        EXPECT_EQ(agg.ipc.ci95, ipc.ci95());
        EXPECT_GT(agg.stats_cycles.stddev, 0.0)
            << "decorrelated replicas must actually vary";
    }
}

TEST(Replication, ReplicasShareWorkloadsAcrossTechniques)
{
    auto spec = smallSpec();
    spec.seeds = 3;
    spec.jobs = 4;
    sim::ExperimentRunner runner;
    const auto sweep = runner.run(spec);
    // replica seeds depend only on the replica index, so 3 benchmarks
    // x 3 seeds = 9 distinct workloads, each shared by 3 techniques
    EXPECT_EQ(sweep.cache.workloadBuilds, 9u);
    EXPECT_EQ(sweep.cache.workloadHits, 18u);
    EXPECT_EQ(sweep.cache.compileBuilds, 9u);
    EXPECT_EQ(sweep.cache.compileHits, 0u);
}

TEST(Replication, JsonExportByteIdenticalAcrossJobsAtSeeds3)
{
    auto spec = smallSpec();
    spec.seeds = 3;

    spec.jobs = 1;
    sim::ExperimentRunner serialRunner;
    const auto serial = serialRunner.run(spec);

    spec.jobs = 4;
    sim::ExperimentRunner threadedRunner;
    const auto threaded = threadedRunner.run(spec);

    EXPECT_EQ(jsonOf(normalized(serial)), jsonOf(normalized(threaded)))
        << "jobs=1 and jobs=4 must export byte-identical JSON";
}

TEST(Replication, LegacySeedsZeroRunsOneReplica)
{
    // "seeds":0 once deferred to an environment variable; a spec
    // carrying it now reads as 1 and runs the same grid on every
    // host, whatever that environment holds
    auto spec = smallSpec();
    spec.benchmarks = {"gzip"};
    spec.techniques = {"baseline"};
    spec.base.workload.repDivisor = 40;
    spec.base.warmupInsts = 2000;
    spec.base.measureInsts = 20000;
    std::string text = sim::toJson(spec);
    const std::string one = "\"seeds\":1";
    const auto at = text.find(one);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, one.size(), "\"seeds\":0");
    std::istringstream is(text);
    const sim::SweepSpec legacy = sim::readSpecJson(is);
    EXPECT_EQ(legacy.seeds, 1);

    const char *const oldVariable = "SIQSIM_SEEDS";
    ASSERT_EQ(setenv(oldVariable, "2", 1), 0);
    sim::ExperimentRunner runner;
    const auto sweep = runner.run(legacy);
    ASSERT_EQ(unsetenv(oldVariable), 0);
    EXPECT_EQ(sweep.seeds, 1);
    EXPECT_TRUE(sweep.aggregates.empty());

    // a hand-built spec has no legacy reading: 0 is refused
    spec.seeds = 0;
    EXPECT_THROW(runner.run(spec), FatalError);
}

/** Every cell of one program shares its copy-on-write memory image
 *  (raw and annotated programs alike) while threads interpret it
 *  concurrently; each cell must still match a serial runOne, which
 *  builds a private program and image. The families cover loops, FP
 *  stores, calls and phase changes, with replicas in flight too. */
TEST(ExperimentRunner, SharedMemoryImagesMatchPrivatePrograms)
{
    sim::SweepSpec spec;
    spec.benchmarks = {"gzip", "specfp", "server", "phased"};
    spec.techniques = {"baseline", "noop",   "extension",
                       "improved", "abella", "folegnani"};
    spec.base.workload.repDivisor = 40;
    spec.base.warmupInsts = 2000;
    spec.base.measureInsts = 10000;
    spec.seeds = 2;
    spec.jobs = 4;
    sim::ExperimentRunner runner;
    const auto sweep = runner.run(spec);

    for (std::size_t t = 0; t < spec.techniques.size(); t++) {
        for (std::size_t b = 0; b < spec.benchmarks.size(); b++) {
            const auto serial = sim::runOne(spec.benchmarks[b],
                                            spec.techniques[t], spec.base);
            EXPECT_TRUE(sim::identicalMeasurement(serial, sweep.at(t, b)))
                << spec.benchmarks[b] << "/" << spec.techniques[t];
        }
    }
}

class ReportRoundTrip : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto spec = smallSpec();
        spec.base.workload.repDivisor = 40;
        spec.base.warmupInsts = 2000;
        spec.base.measureInsts = 20000;
        sim::ExperimentRunner runner;
        sweep = runner.run(spec);
    }

    static void
    expectFullyEqual(const sim::SweepResult &a,
                     const sim::SweepResult &b)
    {
        ASSERT_EQ(a.benchmarks, b.benchmarks);
        ASSERT_EQ(a.techniques, b.techniques);
        ASSERT_EQ(a.cells.size(), b.cells.size());
        for (std::size_t i = 0; i < a.cells.size(); i++) {
            const auto &x = a.cells[i];
            const auto &y = b.cells[i];
            EXPECT_TRUE(sim::identicalMeasurement(x, y)) << i;
            // wall-clock fields round-trip exactly too (%.17g)
            EXPECT_EQ(x.generateSeconds, y.generateSeconds) << i;
            EXPECT_EQ(x.compile.seconds, y.compile.seconds) << i;
        }
    }

    sim::SweepResult sweep;
};

TEST_F(ReportRoundTrip, Json)
{
    std::stringstream ss;
    sim::writeJson(ss, sweep);
    const auto back = sim::readJson(ss);
    expectFullyEqual(sweep, back);
    EXPECT_EQ(back.cache, sweep.cache);
    EXPECT_EQ(back.jobsUsed, sweep.jobsUsed);
    EXPECT_EQ(back.wallSeconds, sweep.wallSeconds);
}

/** CSV rows of @p csv after the header, which goes to @p header. */
std::vector<std::string>
csvRows(const std::string &csv, std::string &header)
{
    std::istringstream is(csv);
    std::getline(is, header);
    std::vector<std::string> rows;
    for (std::string line; std::getline(is, line);) {
        if (!line.empty())
            rows.push_back(line);
    }
    return rows;
}

std::size_t
columns(const std::string &line)
{
    return static_cast<std::size_t>(
               std::count(line.begin(), line.end(), ',')) +
           1;
}

TEST_F(ReportRoundTrip, CsvHasOneFullWidthRowPerCell)
{
    std::stringstream ss;
    sim::writeCsv(ss, sweep);
    std::string header;
    const auto rows = csvRows(ss.str(), header);
    EXPECT_EQ(header.rfind("benchmark,technique,family,generateSeconds,"
                           "compileSeconds,stats_cycles,",
                           0),
              0u)
        << header;
    ASSERT_EQ(rows.size(), sweep.cells.size());
    for (std::size_t i = 0; i < rows.size(); i++) {
        EXPECT_EQ(columns(rows[i]), columns(header)) << "row " << i;
        EXPECT_EQ(rows[i].rfind(sweep.cells[i].benchmark + "," +
                                    sweep.cells[i].technique + ",",
                                0),
                  0u)
            << rows[i];
    }
}

TEST_F(ReportRoundTrip, PowerCsvHasEveryNonBaselineCell)
{
    std::stringstream ss;
    sim::writePowerCsv(ss, sweep);
    std::string line;
    std::size_t rows = 0;
    ASSERT_TRUE(std::getline(ss, line)); // header
    while (std::getline(ss, line))
        rows += line.empty() ? 0 : 1;
    EXPECT_EQ(rows, sweep.benchmarks.size() *
                        (sweep.techniques.size() - 1));
}

TEST_F(ReportRoundTrip, LegacySchemaWhenUnreplicated)
{
    // seeds == 1 must keep the pre-replication export byte format
    const std::string json = jsonOf(sweep);
    EXPECT_EQ(json.find("\"seeds\""), std::string::npos);
    EXPECT_EQ(json.find("\"aggregates\""), std::string::npos);
    std::stringstream ss;
    sim::writeCsv(ss, sweep);
    std::string header;
    ASSERT_TRUE(std::getline(ss, header));
    EXPECT_EQ(header.find(",n"), std::string::npos);
    EXPECT_EQ(header.find("_ci95"), std::string::npos);
}

class ReplicatedRoundTrip : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto spec = smallSpec();
        spec.base.workload.repDivisor = 40;
        spec.base.warmupInsts = 2000;
        spec.base.measureInsts = 20000;
        spec.seeds = 3;
        sim::ExperimentRunner runner;
        sweep = runner.run(spec);
    }

    sim::SweepResult sweep;
};

TEST_F(ReplicatedRoundTrip, JsonPreservesAggregatesExactly)
{
    std::stringstream ss;
    sim::writeJson(ss, sweep);
    const auto back = sim::readJson(ss);
    EXPECT_EQ(back.seeds, 3);
    ASSERT_EQ(back.aggregates.size(), sweep.aggregates.size());
    for (std::size_t i = 0; i < sweep.aggregates.size(); i++) {
        // %.17g doubles round-trip bit-exactly, so default == holds
        EXPECT_EQ(back.aggregates[i], sweep.aggregates[i])
            << "cell " << i;
    }
    for (std::size_t i = 0; i < sweep.cells.size(); i++) {
        EXPECT_TRUE(sim::identicalMeasurement(back.cells[i],
                                              sweep.cells[i]));
    }
}

TEST_F(ReplicatedRoundTrip, CsvCarriesAggregateColumnsPerCell)
{
    std::stringstream ss;
    sim::writeCsv(ss, sweep);
    std::string header;
    const auto rows = csvRows(ss.str(), header);
    EXPECT_NE(header.find(",n,ipc_mean,ipc_stddev,ipc_ci95,"),
              std::string::npos)
        << header;
    EXPECT_NE(header.find(",stats_cycles_ci95,"), std::string::npos);
    ASSERT_EQ(rows.size(), sweep.cells.size());
    for (const auto &row : rows)
        EXPECT_EQ(columns(row), columns(header)) << row;
}

TEST_F(ReplicatedRoundTrip, AggregateLookupByTechniqueName)
{
    const auto &agg = sweep.aggAt("noop", 1);
    EXPECT_EQ(agg.n, 3u);
    EXPECT_GT(agg.ipc.mean, 0.0);
    EXPECT_THROW(sweep.aggAt("definitely-not-registered", 0),
                 FatalError);
    sim::SweepResult unreplicated;
    unreplicated.techniques = {"baseline"};
    unreplicated.benchmarks = {"gzip"};
    EXPECT_THROW(unreplicated.aggAt("baseline", 0), FatalError);
}

TEST_F(ReportRoundTrip, SingleResultJsonParses)
{
    const std::string json = sim::toJson(sweep.cells[0]);
    EXPECT_NE(json.find("\"benchmark\":\"gzip\""), std::string::npos);
    const auto cmp =
        sim::comparePower(sweep.at("baseline", 0), sweep.at("noop", 0));
    const std::string cmpJson = sim::toJson(cmp);
    EXPECT_NE(cmpJson.find("iqDynamicSaving"), std::string::npos);
}

} // namespace
} // namespace siq
