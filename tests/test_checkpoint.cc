/**
 * @file
 * Tests for the distributed-execution layer (sim/checkpoint.hh):
 * shard partitioning, SweepSpec JSON round-tripping, atomic per-cell
 * checkpoints, resume-without-rerun, and the headline guarantee that
 * merging N shard directories is byte-identical to running the same
 * spec unsharded, and payloads written by older versions still read.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sim/checkpoint.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "sim/technique.hh"

namespace siq
{
namespace
{

namespace fs = std::filesystem;

/** Spec small enough that every test stays in the smoke budget. */
sim::SweepSpec
tinySpec()
{
    sim::SweepSpec spec;
    spec.benchmarks = {"gzip", "mcf"};
    spec.techniques = {"baseline", "noop"};
    spec.base.workload.repDivisor = 40;
    spec.base.warmupInsts = 2000;
    spec.base.measureInsts = 20000;
    spec.seeds = 2;
    spec.jobs = 2;
    return spec;
}

std::string
jsonOf(sim::SweepResult s)
{
    sim::canonicalize(s);
    std::ostringstream os;
    sim::writeJson(os, s);
    return os.str();
}

std::string
csvOf(sim::SweepResult s)
{
    sim::canonicalize(s);
    std::ostringstream os;
    sim::writeCsv(os, s);
    return os.str();
}

/** Per-test scratch directory, removed on destruction. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path(fs::temp_directory_path() /
               ("siq_ckpt_test_" + tag + "_" +
                std::to_string(::getpid())))
    {
        fs::remove_all(path);
    }

    ~ScratchDir() { fs::remove_all(path); }

    const fs::path path;
};

TEST(ShardPlan, ParseAndPrint)
{
    const auto plan = sim::parseShard("2/5");
    EXPECT_EQ(plan.index, 2);
    EXPECT_EQ(plan.count, 5);
    EXPECT_EQ(sim::toString(plan), "2/5");
    EXPECT_EQ(sim::parseShard("0/1"), (sim::ShardPlan{0, 1}));

    for (const char *bad :
         {"", "3", "/4", "3/", "a/4", "3/b", "1/2/3", "2/2", "-1/4",
          "1/0", "1/-2"})
        EXPECT_THROW(sim::parseShard(bad), FatalError) << bad;
}

TEST(ShardPlan, PartitionCoversEveryCellExactlyOnce)
{
    for (int count : {1, 2, 3, 7}) {
        for (std::size_t cell = 0; cell < 40; cell++) {
            int owners = 0;
            for (int i = 0; i < count; i++)
                owners += sim::ownsCell({i, count}, cell) ? 1 : 0;
            EXPECT_EQ(owners, 1)
                << "cell " << cell << " of " << count << " shards";
        }
    }
}

TEST(SpecJson, ExactRoundTrip)
{
    // non-default everything that serializes, nested configs included
    sim::SweepSpec spec;
    spec.benchmarks = {"gzip", "mcf", "vpr"};
    spec.techniques = {"noop", "abella"};
    spec.jobs = 5;
    spec.seeds = 4;
    spec.base.workload.scale = 3;
    spec.base.workload.repDivisor = 17;
    spec.base.workload.seed = 0xdeadbeefcafeull;
    spec.base.warmupInsts = 123456;
    spec.base.measureInsts = 7890123;
    spec.base.minHint = 9;
    spec.base.elideRedundant = false;
    spec.base.unrollFactor = 2;
    spec.base.core.fetchWidth = 4;
    spec.base.core.robSize = 96;
    spec.base.core.iq.numEntries = 64;
    spec.base.core.iq.bankSize = 4;
    spec.base.core.lsq.numEntries = 48;
    spec.base.core.intRegs = {96, 31, 4};
    spec.base.core.fuCounts = {7, 5, 4, 3, 2, 1};
    spec.base.core.bpred.gshareEntries = 512;
    spec.base.core.bpred.rasEntries = 16;
    spec.base.core.mem.l1d.sizeBytes = 32 * 1024;
    spec.base.core.mem.l1d.name = "little-l1d";
    spec.base.core.mem.memLatency = 87;
    spec.base.abella.minIq = 24;
    spec.base.abella.stallFractionToGrow = 0.037;
    spec.base.abella.intervalCycles = 4096;
    spec.base.folegnani.contributionThreshold = 9;
    spec.base.folegnani.expandPeriod = 2;

    std::stringstream ss;
    sim::writeSpecJson(ss, spec);
    const sim::SweepSpec back = sim::readSpecJson(ss);

    EXPECT_EQ(back.benchmarks, spec.benchmarks);
    EXPECT_EQ(back.techniques, spec.techniques);
    EXPECT_EQ(back.jobs, spec.jobs);
    EXPECT_EQ(back.seeds, spec.seeds);
    EXPECT_EQ(back.base.workload.seed, spec.base.workload.seed);
    EXPECT_EQ(back.base.elideRedundant, spec.base.elideRedundant);
    EXPECT_EQ(back.base.core.fuCounts, spec.base.core.fuCounts);
    EXPECT_EQ(back.base.core.mem.l1d.name, "little-l1d");
    EXPECT_EQ(back.base.abella.stallFractionToGrow,
              spec.base.abella.stallFractionToGrow);
    // re-serialization is the full-field equality check: every
    // serialized field is byte-identical through the round trip
    EXPECT_EQ(sim::toJson(back), sim::toJson(spec));
}

TEST(SpecJson, UnknownTechniqueIsFatal)
{
    auto spec = tinySpec();
    spec.techniques = {"baseline", "definitely-not-registered"};
    std::stringstream ss;
    sim::writeSpecJson(ss, spec);
    EXPECT_THROW(sim::readSpecJson(ss), FatalError);
}

TEST(CheckpointJson, RoundTripWithAndWithoutAggregate)
{
    sim::RunConfig cfg;
    cfg.workload.repDivisor = 40;
    cfg.warmupInsts = 2000;
    cfg.measureInsts = 20000;
    const auto run = sim::runOne("gzip", "baseline", cfg);

    sim::CellCheckpoint plain;
    plain.index = 7;
    plain.cell = run;
    const auto plainBack = sim::cellCheckpointFromJson(toJson(plain));
    EXPECT_EQ(plainBack.index, 7u);
    EXPECT_EQ(plainBack.seeds, 1);
    EXPECT_TRUE(sim::identicalMeasurement(plainBack.cell, run));

    sim::CellCheckpoint rep;
    rep.index = 3;
    rep.seeds = 2;
    rep.cell = run;
    rep.aggregate.n = 2;
    rep.aggregate.ipc = {1.25, 0.5, 0.75};
    rep.aggregate.stats_cycles = {40000.0, 12.5, 1e-3};
    const auto repBack = sim::cellCheckpointFromJson(toJson(rep));
    EXPECT_EQ(repBack.seeds, 2);
    EXPECT_EQ(repBack.aggregate, rep.aggregate);
    EXPECT_EQ(toJson(repBack), toJson(rep));
}

TEST(CellHooks, FilterSkipsAndCallbackFiresOncePerCell)
{
    auto spec = tinySpec();
    spec.seeds = 3;
    std::atomic<int> calls{0};
    sim::CellHooks hooks;
    hooks.shouldRun = [](std::size_t i) { return i % 2 == 0; };
    hooks.onCellDone = [&](std::size_t i, const sim::CellKey &key,
                           const sim::RunResult &rep0,
                           const sim::CellAggregate *agg) {
        EXPECT_EQ(i % 2, 0u);
        EXPECT_EQ(key.benchmark, rep0.benchmark);
        ASSERT_NE(agg, nullptr);
        EXPECT_EQ(agg->n, 3u);
        calls++;
    };
    sim::ExperimentRunner runner;
    const auto sweep = runner.run(spec, hooks);
    EXPECT_EQ(calls.load(), 2); // cells 0 and 2 of 4
    // skipped cells keep default-constructed slots
    EXPECT_TRUE(sweep.cells[1].benchmark.empty());
    EXPECT_EQ(sweep.cells[1].stats.cycles, 0u);
    EXPECT_FALSE(sweep.cells[0].benchmark.empty());
}

TEST(Checkpoint, ThreeShardMergeByteIdenticalToUnsharded)
{
    const auto spec = tinySpec();
    sim::ExperimentRunner plain;
    const auto unsharded = plain.run(spec);
    const std::string wantJson = jsonOf(unsharded);
    const std::string wantCsv = csvOf(unsharded);

    // one directory per shard, merged afterwards (the cross-host
    // workflow); a fresh runner per shard like separate processes
    ScratchDir scratch("threeshard");
    std::vector<fs::path> dirs;
    for (int i = 0; i < 3; i++) {
        sim::ExperimentRunner shardRunner;
        const fs::path dir = scratch.path / ("shard" + std::to_string(i));
        const auto outcome = sim::runWithCheckpoints(
            shardRunner, spec, {i, 3}, dir);
        EXPECT_FALSE(outcome.complete)
            << "separate dirs each hold only their own cells";
        EXPECT_EQ(outcome.cellsRun, outcome.cellsOwned);
        dirs.push_back(dir);
    }
    const auto merged = sim::mergeCheckpoints(dirs);
    EXPECT_EQ(jsonOf(merged), wantJson);
    EXPECT_EQ(csvOf(merged), wantCsv);

    // the single-shared-directory workflow: the shard that finishes
    // the matrix gets the merged result straight back
    ScratchDir shared("shareddir");
    sim::ShardRunOutcome last;
    for (int i = 0; i < 3; i++) {
        sim::ExperimentRunner shardRunner;
        last = sim::runWithCheckpoints(shardRunner, spec, {i, 3},
                                       shared.path);
    }
    EXPECT_TRUE(last.complete);
    EXPECT_EQ(jsonOf(last.merged), wantJson);
    EXPECT_EQ(csvOf(last.merged), wantCsv);
}

TEST(Checkpoint, ResumeSkipsFinishedCells)
{
    const auto spec = tinySpec();
    ScratchDir scratch("resume");

    // first pass: only shard 0/2 runs, simulating a killed run that
    // got half the matrix checkpointed
    sim::ExperimentRunner first;
    const auto partial = sim::runWithCheckpoints(first, spec, {0, 2},
                                                 scratch.path);
    EXPECT_FALSE(partial.complete);
    EXPECT_EQ(partial.cellsResumed, 0u);
    EXPECT_EQ(partial.cellsRun, partial.cellsOwned);

    // second pass: the full matrix over the same directory must only
    // simulate the cells the first pass did not finish
    sim::ExperimentRunner second;
    const auto resumed = sim::runWithCheckpoints(second, spec, {0, 1},
                                                 scratch.path);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.cellsOwned, resumed.cellsTotal);
    EXPECT_EQ(resumed.cellsResumed, partial.cellsRun);
    EXPECT_EQ(resumed.cellsRun,
              resumed.cellsTotal - partial.cellsRun);
    // the workload cache confirms no re-simulation: shard 0/2 owns
    // the two gzip cells, so the resume pass only ever built the two
    // mcf replica programs
    EXPECT_EQ(second.cacheStats().workloadBuilds, 2u);

    sim::ExperimentRunner plain;
    EXPECT_EQ(jsonOf(resumed.merged), jsonOf(plain.run(spec)));
}

TEST(Checkpoint, MismatchedSpecIsFatal)
{
    const auto spec = tinySpec();
    ScratchDir scratch("mismatch");
    sim::initRunDir(scratch.path, spec);

    auto other = spec;
    other.base.measureInsts = 999999;
    EXPECT_THROW(sim::initRunDir(scratch.path, other), FatalError);
    sim::ExperimentRunner runner;
    EXPECT_THROW(sim::runWithCheckpoints(runner, other, {0, 1},
                                         scratch.path),
                 FatalError);
}

TEST(Checkpoint, JobsAreSchedulingNotIdentity)
{
    auto spec = tinySpec();
    ScratchDir scratch("jobsid");
    sim::initRunDir(scratch.path, spec);
    spec.jobs = 16; // resuming with a different worker count is fine
    EXPECT_NO_THROW(sim::initRunDir(scratch.path, spec));
}

TEST(Checkpoint, LeftoverTmpFilesAreInvisible)
{
    const auto spec = tinySpec();
    ScratchDir scratch("tmpfiles");
    sim::initRunDir(scratch.path, spec);
    // a kill mid-write leaves a .tmp the atomic-rename protocol never
    // published; scans and merges must not see it
    std::ofstream(scratch.path / "cells" /
                  (sim::checkpointFileName(spec, 0) + ".tmp"))
        << "half-writ";
    const auto have = sim::scanCheckpoints(scratch.path, spec);
    for (bool h : have)
        EXPECT_FALSE(h);
}

TEST(Checkpoint, CorruptOrConflictingCheckpointsAreFatal)
{
    const auto spec = tinySpec();
    ScratchDir scratch("corrupt");
    sim::ExperimentRunner runner;
    const auto outcome = sim::runWithCheckpoints(runner, spec, {0, 1},
                                                 scratch.path);
    ASSERT_TRUE(outcome.complete);

    // corrupt one published checkpoint: merge must refuse loudly
    // rather than silently re-running or mixing garbage
    const fs::path victim =
        scratch.path / "cells" / sim::checkpointFileName(spec, 1);
    {
        std::ofstream os(victim, std::ios::trunc);
        os << "{\"not\":\"a checkpoint\"}";
    }
    EXPECT_THROW(sim::mergeCheckpoints({scratch.path}), FatalError);

    // conflicting duplicate across two dirs: also fatal
    ScratchDir copy("conflict");
    fs::create_directories(copy.path);
    fs::copy(scratch.path, copy.path, fs::copy_options::recursive);
    sim::ExperimentRunner again;
    // heal the corrupt copy in dir 1 by re-running just that cell
    fs::remove(victim);
    sim::CellHooks hooks;
    hooks.shouldRun = [](std::size_t i) { return i == 1; };
    hooks.onCellDone = [&](std::size_t i, const sim::CellKey &,
                           const sim::RunResult &rep0,
                           const sim::CellAggregate *agg) {
        sim::CellCheckpoint ckpt;
        ckpt.index = i;
        ckpt.seeds = agg ? static_cast<int>(agg->n) : 1;
        ckpt.cell = rep0;
        if (agg)
            ckpt.aggregate = *agg;
        sim::writeCellCheckpoint(scratch.path, spec, ckpt);
    };
    again.run(spec, hooks);
    EXPECT_THROW(sim::mergeCheckpoints({scratch.path, copy.path}),
                 FatalError);
}

TEST(Checkpoint, TruncatedCheckpointIsReRunNotMerged)
{
    // a power cut after rename but before the data hit disk can leave
    // a published checkpoint truncated; resume must treat it as
    // missing and re-simulate that one cell, never merge garbage
    const auto spec = tinySpec();
    ScratchDir scratch("truncated");
    sim::ExperimentRunner first;
    const auto full = sim::runWithCheckpoints(first, spec, {0, 1},
                                              scratch.path);
    ASSERT_TRUE(full.complete);

    const fs::path victim =
        scratch.path / "cells" / sim::checkpointFileName(spec, 2);
    const auto size = fs::file_size(victim);
    fs::resize_file(victim, size / 2);

    // the scan sees every cell except the damaged one
    const auto have = sim::scanCheckpoints(scratch.path, spec);
    ASSERT_EQ(have.size(), 4u);
    for (std::size_t i = 0; i < have.size(); i++)
        EXPECT_EQ(have[i], i != 2u) << "cell " << i;

    // resume re-runs exactly that cell and the merge is byte-equal
    // to an unsharded run
    sim::ExperimentRunner second;
    const auto resumed = sim::runWithCheckpoints(second, spec, {0, 1},
                                                 scratch.path);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.cellsRun, 1u);
    EXPECT_EQ(resumed.cellsResumed, 3u);
    sim::ExperimentRunner plain;
    EXPECT_EQ(jsonOf(resumed.merged), jsonOf(plain.run(spec)));
}

TEST(Checkpoint, StaleTmpFilesOfDeadProcessesAreReaped)
{
    const auto spec = tinySpec();
    ScratchDir scratch("staletmp");
    sim::initRunDir(scratch.path, spec);
    const fs::path cells = scratch.path / "cells";
    fs::create_directories(cells);

    // 99999999 exceeds the kernel's pid_max; kill(pid, 0) => ESRCH,
    // so the scan classifies its leftovers as a crashed shard's
    const fs::path dead =
        cells / (sim::checkpointFileName(spec, 0) + ".tmp.99999999.0");
    // our own pid is alive: a concurrent shard mid-write, keep it
    const fs::path live =
        cells / (sim::checkpointFileName(spec, 1) + ".tmp." +
                 std::to_string(::getpid()) + ".0");
    // unparseable pid field: leave it alone rather than guess
    const fs::path odd =
        cells / (sim::checkpointFileName(spec, 2) + ".tmp.x.0");
    for (const auto &p : {dead, live, odd})
        std::ofstream(p) << "half-writ";

    const auto have = sim::scanCheckpoints(scratch.path, spec);
    for (bool h : have)
        EXPECT_FALSE(h); // tmp files are never published cells
    EXPECT_FALSE(fs::exists(dead));
    EXPECT_TRUE(fs::exists(live));
    EXPECT_TRUE(fs::exists(odd));
}

TEST(Checkpoint, MissingCellsAreFatal)
{
    const auto spec = tinySpec();
    ScratchDir scratch("missing");
    sim::ExperimentRunner runner;
    sim::runWithCheckpoints(runner, spec, {0, 2}, scratch.path);
    EXPECT_THROW(sim::mergeCheckpoints({scratch.path}), FatalError);
}

// ------------------------------------------ exports of older versions

/*
 * Payloads written by the last version that had functional-trace
 * replay. Its non-canonical outputs carry per-cell "traceSeconds" and
 * trace-cache counters ("traceBuilds", "traceHits", "traceEvicted",
 * "traceBytes"); readers must keep accepting them and ignore those
 * keys. All three came from one gzip grid (baseline and noop, 500
 * warm-up and 2000 measured instructions, rep divisor 40): two cell
 * checkpoints, the run's cache.json, and its canonical export.
 */

const char *const oldCell0 =
    "{\"index\":0,\"seeds\":1,\"cell\":{\"benchmark\":\"gzip\",\"technique\":\"b"
    "aseline\",\"family\":\"baseline\",\"generateSeconds\":0.0002014139999"
    "9999999,\"traceSeconds\":0.000278359,\"stats\":{\"cycles\":1306,\"com"
    "mitted\":2001,\"fetched\":2003,\"dispatched\":2011,\"issued\":2006,\"h"
    "intsApplied\":0,\"branchMispredicts\":2,\"frontRedirects\":1,\"condB"
    "ranches\":173,\"dispatchStallRob\":0,\"dispatchStallIqFull\":1056,\""
    "dispatchStallRange\":0,\"dispatchStallLimit\":0,\"dispatchStallReg"
    "s\":0,\"dispatchStallLsq\":0,\"loads\":350,\"stores\":174,\"loadForwar"
    "ds\":0,\"rfIntReads\":2535,\"rfIntWrites\":1571,\"rfFpReads\":0,\"rfFp"
    "Writes\":0,\"rfIntLiveSum\":126495,\"rfIntPoweredBankCycles\":18132"
    ",\"rfIntBankCycles\":18284,\"rfFpLiveSum\":41792,\"rfFpPoweredBankC"
    "ycles\":5224,\"rfFpBankCycles\":18284},\"iq\":{\"broadcasts\":1571,\"c"
    "mpGated\":36238,\"cmpPowered\":175424,\"cmpConventional\":251360,\"d"
    "ispatchWrites\":2011,\"issueReads\":2006,\"poweredBankCycles\":6964"
    ",\"totalBankCycles\":13060,\"occupancySum\":16345,\"cycles\":1306},\""
    "compile\":{\"proceduresAnalyzed\":0,\"blocksAnalyzed\":0,\"loopsAnal"
    "yzed\":0,\"hintNoopsInserted\":0,\"tagsApplied\":0,\"hintsElided\":0,"
    "\"seconds\":0}}}\n";

const char *const oldCell1 =
    "{\"index\":1,\"seeds\":1,\"cell\":{\"benchmark\":\"gzip\",\"technique\":\"n"
    "oop\",\"family\":\"noop\",\"generateSeconds\":0.00020141399999999999,"
    "\"traceSeconds\":0.00025484699999999999,\"compileSeconds\":0.00057"
    "921999999999997,\"stats\":{\"cycles\":1666,\"committed\":2000,\"fetch"
    "ed\":2001,\"dispatched\":2000,\"issued\":2012,\"hintsApplied\":0,\"bra"
    "nchMispredicts\":2,\"frontRedirects\":1,\"condBranches\":173,\"dispa"
    "tchStallRob\":0,\"dispatchStallIqFull\":0,\"dispatchStallRange\":14"
    "26,\"dispatchStallLimit\":0,\"dispatchStallRegs\":0,\"dispatchStall"
    "Lsq\":0,\"loads\":350,\"stores\":172,\"loadForwards\":0,\"rfIntReads\":"
    "2550,\"rfIntWrites\":1577,\"rfFpReads\":0,\"rfFpWrites\":0,\"rfIntLiv"
    "eSum\":154648,\"rfIntPoweredBankCycles\":21640,\"rfIntBankCycles\":"
    "23324,\"rfFpLiveSum\":53312,\"rfFpPoweredBankCycles\":6664,\"rfFpBa"
    "nkCycles\":23324},\"iq\":{\"broadcasts\":1577,\"cmpGated\":35720,\"cmp"
    "Powered\":165104,\"cmpConventional\":252320,\"dispatchWrites\":2000"
    ",\"issueReads\":2012,\"poweredBankCycles\":7836,\"totalBankCycles\":"
    "16660,\"occupancySum\":18585,\"cycles\":1666},\"compile\":{\"procedur"
    "esAnalyzed\":1,\"blocksAnalyzed\":10,\"loopsAnalyzed\":2,\"hintNoops"
    "Inserted\":4,\"tagsApplied\":0,\"hintsElided\":0,\"seconds\":0.000579"
    "21999999999997}}}\n";

const char *const oldCacheJson =
    "{\"workloadBuilds\":1,\"workloadHits\":1,\"compileBuilds\":1,\"compil"
    "eHits\":0,\"traceBuilds\":2,\"traceHits\":0,\"traceEvicted\":0,\"trace"
    "Bytes\":393216}\n";

const char *const oldCanonicalExport =
    "{\"benchmarks\":[\"gzip\"],\"techniques\":[\"baseline\",\"noop\"],\"jobs\""
    ":0,\"wallSeconds\":0,\"cache\":{\"workloadBuilds\":0,\"workloadHits\":"
    "0,\"compileBuilds\":0,\"compileHits\":0},\"cells\":[\n"
    "{\"benchmark\":\"gzip\",\"technique\":\"baseline\",\"family\":\"baseline\""
    ",\"generateSeconds\":0,\"stats\":{\"cycles\":1306,\"committed\":2001,\""
    "fetched\":2003,\"dispatched\":2011,\"issued\":2006,\"hintsApplied\":0"
    ",\"branchMispredicts\":2,\"frontRedirects\":1,\"condBranches\":173,\""
    "dispatchStallRob\":0,\"dispatchStallIqFull\":1056,\"dispatchStallR"
    "ange\":0,\"dispatchStallLimit\":0,\"dispatchStallRegs\":0,\"dispatch"
    "StallLsq\":0,\"loads\":350,\"stores\":174,\"loadForwards\":0,\"rfIntRe"
    "ads\":2535,\"rfIntWrites\":1571,\"rfFpReads\":0,\"rfFpWrites\":0,\"rfI"
    "ntLiveSum\":126495,\"rfIntPoweredBankCycles\":18132,\"rfIntBankCyc"
    "les\":18284,\"rfFpLiveSum\":41792,\"rfFpPoweredBankCycles\":5224,\"r"
    "fFpBankCycles\":18284},\"iq\":{\"broadcasts\":1571,\"cmpGated\":36238"
    ",\"cmpPowered\":175424,\"cmpConventional\":251360,\"dispatchWrites\""
    ":2011,\"issueReads\":2006,\"poweredBankCycles\":6964,\"totalBankCyc"
    "les\":13060,\"occupancySum\":16345,\"cycles\":1306},\"compile\":{\"pro"
    "ceduresAnalyzed\":0,\"blocksAnalyzed\":0,\"loopsAnalyzed\":0,\"hintN"
    "oopsInserted\":0,\"tagsApplied\":0,\"hintsElided\":0,\"seconds\":0}},"
    "\n"
    "{\"benchmark\":\"gzip\",\"technique\":\"noop\",\"family\":\"noop\",\"genera"
    "teSeconds\":0,\"stats\":{\"cycles\":1666,\"committed\":2000,\"fetched\""
    ":2001,\"dispatched\":2000,\"issued\":2012,\"hintsApplied\":0,\"branch"
    "Mispredicts\":2,\"frontRedirects\":1,\"condBranches\":173,\"dispatch"
    "StallRob\":0,\"dispatchStallIqFull\":0,\"dispatchStallRange\":1426,"
    "\"dispatchStallLimit\":0,\"dispatchStallRegs\":0,\"dispatchStallLsq"
    "\":0,\"loads\":350,\"stores\":172,\"loadForwards\":0,\"rfIntReads\":255"
    "0,\"rfIntWrites\":1577,\"rfFpReads\":0,\"rfFpWrites\":0,\"rfIntLiveSu"
    "m\":154648,\"rfIntPoweredBankCycles\":21640,\"rfIntBankCycles\":233"
    "24,\"rfFpLiveSum\":53312,\"rfFpPoweredBankCycles\":6664,\"rfFpBankC"
    "ycles\":23324},\"iq\":{\"broadcasts\":1577,\"cmpGated\":35720,\"cmpPow"
    "ered\":165104,\"cmpConventional\":252320,\"dispatchWrites\":2000,\"i"
    "ssueReads\":2012,\"poweredBankCycles\":7836,\"totalBankCycles\":166"
    "60,\"occupancySum\":18585,\"cycles\":1666},\"compile\":{\"proceduresA"
    "nalyzed\":1,\"blocksAnalyzed\":10,\"loopsAnalyzed\":2,\"hintNoopsIns"
    "erted\":4,\"tagsApplied\":0,\"hintsElided\":0,\"seconds\":0}}\n"
    "]}\n";

/** A figure bench's non-canonical export of the same version (gzip
 *  under baseline, noop and abella). */
const char *const oldSweepExport =
    "{\"benchmarks\":[\"gzip\"],\"techniques\":[\"baseline\",\"noop\",\"abella"
    "\"],\"jobs\":1,\"wallSeconds\":0.0056614680000000002,\"cache\":{\"work"
    "loadBuilds\":1,\"workloadHits\":2,\"compileBuilds\":1,\"compileHits\""
    ":0,\"traceBuilds\":2,\"traceHits\":1,\"traceEvicted\":0,\"traceBytes\""
    ":393216},\"cells\":[\n"
    "{\"benchmark\":\"gzip\",\"technique\":\"baseline\",\"family\":\"baseline\""
    ",\"generateSeconds\":0.00022288200000000001,\"traceSeconds\":0.000"
    "40914899999999998,\"stats\":{\"cycles\":1306,\"committed\":2001,\"fet"
    "ched\":2003,\"dispatched\":2011,\"issued\":2006,\"hintsApplied\":0,\"b"
    "ranchMispredicts\":2,\"frontRedirects\":1,\"condBranches\":173,\"dis"
    "patchStallRob\":0,\"dispatchStallIqFull\":1056,\"dispatchStallRang"
    "e\":0,\"dispatchStallLimit\":0,\"dispatchStallRegs\":0,\"dispatchSta"
    "llLsq\":0,\"loads\":350,\"stores\":174,\"loadForwards\":0,\"rfIntReads"
    "\":2535,\"rfIntWrites\":1571,\"rfFpReads\":0,\"rfFpWrites\":0,\"rfIntL"
    "iveSum\":126495,\"rfIntPoweredBankCycles\":18132,\"rfIntBankCycles"
    "\":18284,\"rfFpLiveSum\":41792,\"rfFpPoweredBankCycles\":5224,\"rfFp"
    "BankCycles\":18284},\"iq\":{\"broadcasts\":1571,\"cmpGated\":36238,\"c"
    "mpPowered\":175424,\"cmpConventional\":251360,\"dispatchWrites\":20"
    "11,\"issueReads\":2006,\"poweredBankCycles\":6964,\"totalBankCycles"
    "\":13060,\"occupancySum\":16345,\"cycles\":1306},\"compile\":{\"proced"
    "uresAnalyzed\":0,\"blocksAnalyzed\":0,\"loopsAnalyzed\":0,\"hintNoop"
    "sInserted\":0,\"tagsApplied\":0,\"hintsElided\":0,\"seconds\":0}},\n"
    "{\"benchmark\":\"gzip\",\"technique\":\"noop\",\"family\":\"noop\",\"genera"
    "teSeconds\":0.00022288200000000001,\"traceSeconds\":0.000346454,\""
    "compileSeconds\":0.00062688000000000002,\"stats\":{\"cycles\":1666,"
    "\"committed\":2000,\"fetched\":2001,\"dispatched\":2000,\"issued\":201"
    "2,\"hintsApplied\":0,\"branchMispredicts\":2,\"frontRedirects\":1,\"c"
    "ondBranches\":173,\"dispatchStallRob\":0,\"dispatchStallIqFull\":0,"
    "\"dispatchStallRange\":1426,\"dispatchStallLimit\":0,\"dispatchStal"
    "lRegs\":0,\"dispatchStallLsq\":0,\"loads\":350,\"stores\":172,\"loadFo"
    "rwards\":0,\"rfIntReads\":2550,\"rfIntWrites\":1577,\"rfFpReads\":0,\""
    "rfFpWrites\":0,\"rfIntLiveSum\":154648,\"rfIntPoweredBankCycles\":2"
    "1640,\"rfIntBankCycles\":23324,\"rfFpLiveSum\":53312,\"rfFpPoweredB"
    "ankCycles\":6664,\"rfFpBankCycles\":23324},\"iq\":{\"broadcasts\":157"
    "7,\"cmpGated\":35720,\"cmpPowered\":165104,\"cmpConventional\":25232"
    "0,\"dispatchWrites\":2000,\"issueReads\":2012,\"poweredBankCycles\":"
    "7836,\"totalBankCycles\":16660,\"occupancySum\":18585,\"cycles\":166"
    "6},\"compile\":{\"proceduresAnalyzed\":1,\"blocksAnalyzed\":10,\"loop"
    "sAnalyzed\":2,\"hintNoopsInserted\":4,\"tagsApplied\":0,\"hintsElide"
    "d\":0,\"seconds\":0.00062688000000000002}},\n"
    "{\"benchmark\":\"gzip\",\"technique\":\"abella\",\"family\":\"abella\",\"ge"
    "nerateSeconds\":0.00022288200000000001,\"stats\":{\"cycles\":1306,\""
    "committed\":2001,\"fetched\":2003,\"dispatched\":2011,\"issued\":2006"
    ",\"hintsApplied\":0,\"branchMispredicts\":2,\"frontRedirects\":1,\"co"
    "ndBranches\":173,\"dispatchStallRob\":0,\"dispatchStallIqFull\":105"
    "6,\"dispatchStallRange\":0,\"dispatchStallLimit\":0,\"dispatchStall"
    "Regs\":0,\"dispatchStallLsq\":0,\"loads\":350,\"stores\":174,\"loadFor"
    "wards\":0,\"rfIntReads\":2535,\"rfIntWrites\":1571,\"rfFpReads\":0,\"r"
    "fFpWrites\":0,\"rfIntLiveSum\":126495,\"rfIntPoweredBankCycles\":18"
    "132,\"rfIntBankCycles\":18284,\"rfFpLiveSum\":41792,\"rfFpPoweredBa"
    "nkCycles\":5224,\"rfFpBankCycles\":18284},\"iq\":{\"broadcasts\":1571"
    ",\"cmpGated\":36238,\"cmpPowered\":175424,\"cmpConventional\":251360"
    ",\"dispatchWrites\":2011,\"issueReads\":2006,\"poweredBankCycles\":6"
    "964,\"totalBankCycles\":13060,\"occupancySum\":16345,\"cycles\":1306"
    "},\"compile\":{\"proceduresAnalyzed\":0,\"blocksAnalyzed\":0,\"loopsA"
    "nalyzed\":0,\"hintNoopsInserted\":0,\"tagsApplied\":0,\"hintsElided\""
    ":0,\"seconds\":0}}\n"
    "]}\n";

/** `siqsim spec --workloads gzip,phased:period=60000 --techniques all
 *  --warmup 2000 --measure 10000 --rep-divisor 40`, as written before
 *  the config schema moved to field lists (sim/fields.hh), less the
 *  resizers' machine sizes and bank steps and with seeds 1 (see
 *  OldSpecs below). */
const char *const oldOracleSpec =
    "{\"benchmarks\":[{\"family\":\"gzip\"},{\"family\":\"phased\",\"params"
    "\":{\"period\":60000}}],\"techniques\":[\"baseline\",\"noop\",\"extens"
    "ion\",\"improved\",\"abella\",\"folegnani\"],\"jobs\":0,\"seeds\":1,\n"
    "\"base\":{\"workload\":{\"scale\":1,\"repDivisor\":40,\"seed\":12345},"
    "\"warmupInsts\":2000,\"measureInsts\":10000,\"minHint\":4,\"elideRedun"
    "dant\":true,\"unrollFactor\":4,\"core\":{\"fetchWidth\":8,\"dispatchWi"
    "dth\":8,\"issueWidth\":8,\"commitWidth\":8,\"decodeDepth\":3,\"fetchQu"
    "eueSize\":32,\"robSize\":128,\"iq\":{\"numEntries\":80,\"bankSize\":8}"
    ",\"lsq\":{\"numEntries\":64},\"intRegs\":{\"numPhys\":112,\"numArch\":"
    "32,\"bankSize\":8},\"fpRegs\":{\"numPhys\":112,\"numArch\":32,\"bankSi"
    "ze\":8},\"fuCounts\":[1048576,6,3,4,2,2],\"bpred\":{\"gshareEntries\":"
    "2048,\"bimodalEntries\":2048,\"selectorEntries\":1024,\"btbEntries\":2"
    "048,\"btbAssoc\":4,\"rasEntries\":8},\"mem\":{\"l1i\":{\"name\":\"l1i"
    "\",\"sizeBytes\":65536,\"assoc\":2,\"lineBytes\":32,\"hitLatency\":1},"
    "\"l1d\":{\"name\":\"l1d\",\"sizeBytes\":65536,\"assoc\":4,\"lineBytes"
    "\":32,\"hitLatency\":2},\"l2\":{\"name\":\"l2\",\"sizeBytes\":524288,"
    "\"assoc\":8,\"lineBytes\":64,\"hitLatency\":10},\"memLatency\":50}},\""
    "abella\":{\"minIq\":16,\"robFloor\":64,\"intervalCycles"
    "\":16384,\"slackPortions\":1,\"stallFractionToGrow\":0.0500000000000"
    "00003},\"folegnani\":{\"minSize\":16,\"intervalCycles\""
    ":1000,\"contributionThreshold\":4,\"expandPeriod\":4}}}\n";

/** The same CLI on perlbmk with `--techniques baseline,noop
 *  --speculative`, from the same writer. */
const char *const oldSpeculativeSpec =
    "{\"benchmarks\":[{\"family\":\"perlbmk\"}],\"techniques\":[\"baseline"
    "\",\"noop\"],\"jobs\":0,\"seeds\":1,\n"
    "\"base\":{\"workload\":{\"scale\":1,\"repDivisor\":40,\"seed\":12345},"
    "\"warmupInsts\":2000,\"measureInsts\":10000,\"minHint\":4,\"elideRedun"
    "dant\":true,\"unrollFactor\":4,\"core\":{\"fetchWidth\":8,\"dispatchWi"
    "dth\":8,\"issueWidth\":8,\"commitWidth\":8,\"decodeDepth\":3,\"fetchQu"
    "eueSize\":32,\"robSize\":128,\"iq\":{\"numEntries\":80,\"bankSize\":8}"
    ",\"lsq\":{\"numEntries\":64},\"intRegs\":{\"numPhys\":112,\"numArch\":"
    "32,\"bankSize\":8},\"fpRegs\":{\"numPhys\":112,\"numArch\":32,\"bankSi"
    "ze\":8},\"fuCounts\":[1048576,6,3,4,2,2],\"bpred\":{\"gshareEntries\":"
    "2048,\"bimodalEntries\":2048,\"selectorEntries\":1024,\"btbEntries\":2"
    "048,\"btbAssoc\":4,\"rasEntries\":8},\"specFrontEnd\":true,\"mem\":{\""
    "l1i\":{\"name\":\"l1i\",\"sizeBytes\":65536,\"assoc\":2,\"lineBytes\":"
    "32,\"hitLatency\":1},\"l1d\":{\"name\":\"l1d\",\"sizeBytes\":65536,\"a"
    "ssoc\":4,\"lineBytes\":32,\"hitLatency\":2},\"l2\":{\"name\":\"l2\",\""
    "sizeBytes\":524288,\"assoc\":8,\"lineBytes\":64,\"hitLatency\":10},\"m"
    "emLatency\":50}},\"abella\":{\"minIq\":16,\"robFloor\":6"
    "4,\"intervalCycles\":16384,\"slackPortions\":1,\"stallFractionToGrow"
    "\":0.050000000000000003},\"folegnani\":{\"minSize\":16,"
    "\"intervalCycles\":1000,\"contributionThreshold\":4,\"expandPeriod\""
    ":4}}}\n";

/** The tiny grid the old checkpoints and canonical export came from. */
sim::SweepSpec
oldGridSpec()
{
    sim::SweepSpec spec;
    spec.benchmarks = {"gzip"};
    spec.techniques = {"baseline", "noop"};
    spec.base.workload.repDivisor = 40;
    spec.base.warmupInsts = 500;
    spec.base.measureInsts = 2000;
    spec.seeds = 1;
    spec.jobs = 1;
    return spec;
}

TEST(OldExports, CheckpointPayloadsWithTraceKeysStillRead)
{
    const auto c0 = sim::cellCheckpointFromJson(oldCell0);
    const auto c1 = sim::cellCheckpointFromJson(oldCell1);
    EXPECT_EQ(c0.index, 0u);
    EXPECT_EQ(c1.index, 1u);
    EXPECT_EQ(c0.cell.technique, "baseline");
    EXPECT_EQ(c1.cell.technique, "noop");
    EXPECT_EQ(c0.cell.stats.cycles, 1306u);
    EXPECT_EQ(c1.cell.compile.hintNoopsInserted, 4u);
    EXPECT_GT(c1.cell.compileSeconds, 0.0);

    const sim::SweepCacheStats cache =
        sim::cacheStatsFromJson(oldCacheJson);
    EXPECT_EQ(cache.workloadBuilds, 1u);
    EXPECT_EQ(cache.workloadHits, 1u);
    EXPECT_EQ(cache.compileBuilds, 1u);
    EXPECT_EQ(cache.compileHits, 0u);

    // the old cells fold into the old canonical export, byte for byte
    sim::SweepResult merged;
    merged.benchmarks = {"gzip"};
    merged.techniques = {"baseline", "noop"};
    merged.cells = {c0.cell, c1.cell};
    merged.cache = cache;
    EXPECT_EQ(jsonOf(merged), oldCanonicalExport);
}

TEST(OldExports, SweepExportWithTraceKeysStillReads)
{
    std::istringstream is(oldSweepExport);
    const sim::SweepResult old = sim::readJson(is);
    ASSERT_EQ(old.cells.size(), 3u);
    EXPECT_EQ(old.techniques,
              (std::vector<std::string>{"baseline", "noop", "abella"}));
    EXPECT_EQ(old.cache.workloadBuilds, 1u);
    EXPECT_EQ(old.cache.workloadHits, 2u);
    EXPECT_EQ(old.at("baseline", 0).stats.cycles, 1306u);
    EXPECT_GT(old.at("noop", 0).generateSeconds, 0.0);

    // written back, the ignored keys are gone
    std::ostringstream os;
    sim::writeJson(os, old);
    EXPECT_EQ(os.str().find("trace"), std::string::npos);
}

TEST(OldExports, CurrentSimulatorReproducesOldCanonicalExport)
{
    sim::ExperimentRunner runner;
    EXPECT_EQ(jsonOf(runner.run(oldGridSpec())), oldCanonicalExport);
}

TEST(OldExports, OldSpecsReadBackByteIdentically)
{
    // initRunDir compares spec.json byte-wise: a run directory started
    // by the older writer must still resume
    for (const char *text : {oldOracleSpec, oldSpeculativeSpec}) {
        std::istringstream is(text);
        EXPECT_EQ(sim::toJson(sim::readSpecJson(is)), text);
    }
}

TEST(OldSpecs, ResizerMachineSizesAreReadAndDropped)
{
    // specs written while the resizers carried their own copy of the
    // machine sizes (abella.iqSize/robSize, folegnani.iqSize) and of
    // the bank (abella.portion, folegnani.portion) still read,
    // whatever those keys held, to the spec without them: the
    // resizers take their sizes and step from core. A legacy
    // "seeds":0 (defer to an environment variable that defaulted to
    // 1) reads as 1. Each edit is checked alone and on top of the
    // ones before it.
    const std::pair<std::string, std::string> edits[] = {
        {"\"abella\":{", "\"abella\":{\"iqSize\":96,\"robSize\":7,"},
        {"\"folegnani\":{", "\"folegnani\":{\"iqSize\":12,"},
        {"\"abella\":{", "\"abella\":{\"portion\":4,"},
        {"\"folegnani\":{", "\"folegnani\":{\"portion\":16,"},
        {"\"seeds\":1", "\"seeds\":0"},
    };
    const auto apply = [](std::string &text, const std::string &from,
                          const std::string &to) {
        const auto pos = text.find(from);
        ASSERT_NE(pos, std::string::npos) << from;
        text.replace(pos, from.size(), to);
    };
    for (const char *text : {oldOracleSpec, oldSpeculativeSpec}) {
        std::string all = text;
        for (const auto &[from, to] : edits) {
            std::string one = text;
            apply(one, from, to);
            apply(all, from, to);
            for (const std::string &old : {one, all}) {
                ASSERT_NE(old, text);
                std::istringstream is(old);
                EXPECT_EQ(sim::toJson(sim::readSpecJson(is)), text)
                    << old;
            }
        }
    }
}

TEST(OldExports, UnknownTechniqueFamilyIsRejected)
{
    std::string text = oldCell0;
    const std::string family = "\"family\":\"baseline\"";
    ASSERT_NE(text.find(family), std::string::npos);
    text.replace(text.find(family), family.size(),
                 "\"family\":\"noop-floor8\"");
    EXPECT_THROW(sim::cellCheckpointFromJson(text), FatalError);
}

} // namespace
} // namespace siq
