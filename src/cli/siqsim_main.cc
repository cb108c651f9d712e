/**
 * @file
 * `siqsim` — the command-line driver for sharded, resumable
 * experiment sweeps (DESIGN.md §8, docs/ENVIRONMENT.md):
 *
 *   siqsim spec  ...   print a sweep-spec JSON for a grid
 *   siqsim run   ...   run a spec (whole, or one shard of N, with
 *                      per-cell checkpointing and resume)
 *   siqsim merge ...   fold shard checkpoint directories back into
 *                      the canonical single-file JSON/CSV
 *   siqsim status ...  report cells done/missing (per shard) for a
 *                      checkpoint run directory
 *   siqsim table  ...  render a paper figure/table from complete run
 *                      directories (cli/tables.hh)
 *   siqsim list        list benchmarks and techniques
 *
 * `run` and `merge` emit *canonical* exports: scheduling and
 * wall-clock metadata are zeroed (sim::canonicalize), so the same
 * spec produces byte-identical files whether it ran on 1 thread or
 * 16, in one process or N shards, straight through or killed and
 * resumed. `diff` is the integrity check.
 */

#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli/tables.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sim/checkpoint.hh"
#include "sim/report.hh"
#include "sim/serve.hh"
#include "sim/sweep.hh"
#include "sim/technique.hh"
#include "workloads/family.hh"

namespace
{

using namespace siq;
namespace fs = std::filesystem;

int
usage(std::ostream &os, int rc)
{
    os << R"(siqsim — sharded, resumable sweep runner (see README.md)

usage:
  siqsim spec [options]             print a sweep-spec JSON
  siqsim run --spec FILE [options]  run a spec, whole or one shard
  siqsim merge DIR... [options]     fold checkpoint dirs into one matrix
  siqsim status DIR [--shards N] [--cache]
                                    cells done/missing in a run dir
  siqsim table NAME [DIR...]        render a paper table from run dirs
  siqsim list                       list workload families and techniques
  siqsim serve --socket PATH | --stdio
                                    long-lived simulation daemon (JSONL)

spec options (grid axes and config fields; all optional):
  --spec FILE                  start from this spec instead of the
                               defaults (every registered family x
                               every technique)
  --workloads a,b,... | all    workloads to sweep (default: every
                               registered family). Entries are workload
                               specs: a family name, optionally with
                               parameter overrides —
                               'phased:period=60000:duty=20'
                               ('siqsim list' shows families + params;
                               --benchmarks is accepted as an alias)
  --techniques a,b,... | all   techniques to sweep (default: all built-ins)
  --set PATH=VALUE             set any spec field (repeatable): PATH
                               is a key of the spec JSON, config
                               fields relative to "base"
                               ('core.iq.bankSize=16', 'minHint=8',
                               'core.specFrontEnd=true'); VALUE is
                               range-checked like a spec file's
  --warmup N / --measure N     per-cell instruction budgets
                               (warmupInsts / measureInsts)
  --seeds N                    replicas per cell (1 = off)
  --jobs N                     worker threads (0 = cores)
  --scale N / --rep-divisor N  workload size knobs (workload.scale /
                               workload.repDivisor)
  --seed N                     base workload seed (workload.seed)
  --speculative                model the real front end (gshare + BTB +
                               RAS with wrong-path fetch and squash
                               recovery) instead of the oracle
                               (core.specFrontEnd=true)
  --out FILE                   write the spec there instead of stdout

run options:
  --spec FILE                  the spec to run (required)
  --shard i/N                  run only cells with index % N == i
                               (requires --ckpt)
  --ckpt DIR                   checkpoint run directory: finished cells
                               are published atomically as they finish,
                               and already-checkpointed cells are
                               skipped on restart
  --jobs N / --seeds N         override the spec's values
  --json/--csv/--power-csv FILE   canonical exports ('-' = stdout)
  --baseline NAME              power-CSV baseline technique [baseline]

merge options:
  DIR...                       checkpoint dirs written by 'run' (one
                               shared dir, or one per shard)
  --json/--csv/--power-csv FILE, --baseline NAME   as for run

status options:
  DIR                          a checkpoint run directory (its
                               spec.json names the grid)
  --shards N                   additionally break the report down by
                               the N-way shard partition cells were
                               (or will be) run under
  --cache                      also print the workload/compile
                               cache counters each 'run' invocation
                               recorded in the run directory
  exit status: 0 when every cell is checkpointed, 3 when cells are
  still missing (distinct from 1, a usage/IO error)

table options:
  NAME                         one of the tables below
  DIR...                       complete run directories written by
                               'run --ckpt' from the specs/ files
                               (figures: specs/paper.json; mispredict:
                               it and specs/paper-speculative.json;
                               A1-A4: the specs/ablation*.json runs)
)" << cli::tableList() << R"(
serve options (protocol: DESIGN.md §13):
  --socket PATH                listen on a unix domain socket; each
                               connection is an independent client
  --stdio                      serve one client over stdin/stdout
                               (tests, inetd-style supervisors)
  --jobs N                     default worker threads per request
                               (0 = hardware concurrency)
  requests:  {"id":"r1","spec":{...}}   {"cancel":"r1"}
  responses: accepted / cell / done / error records, one per line;
  workload and compiled-program caches are shared across
  requests, and identical in-flight cells from concurrent clients
  are simulated once. Env: SIQSIM_SERVE_QUEUE (per-client record
  queue, default 256), SIQSIM_SERVE_RESULT_CACHE (completed-cell
  LRU, default 1024), SIQSIM_SERVE_FANOUT_MS (docs/ENVIRONMENT.md).

The merge of N shard directories is byte-identical to the same spec
run unsharded — both are canonical exports of the same pure function.
)";
    return rc;
}

/** argv cursor: flags may appear in any order after the subcommand. */
class Args
{
  public:
    Args(int argc, char **argv, int start)
    {
        for (int i = start; i < argc; i++)
            tokens.emplace_back(argv[i]);
    }

    /** Consume `--name VALUE`; nullopt when absent. */
    std::optional<std::string>
    option(const std::string &name)
    {
        for (std::size_t i = 0; i < tokens.size(); i++) {
            if (tokens[i] != "--" + name)
                continue;
            if (i + 1 >= tokens.size())
                fatal("siqsim: --", name, " needs a value");
            std::string value = tokens[i + 1];
            tokens.erase(tokens.begin() + static_cast<long>(i),
                         tokens.begin() + static_cast<long>(i) + 2);
            return value;
        }
        return std::nullopt;
    }

    /** Consume a bare `--name` flag; false when absent. */
    bool
    flag(const std::string &name)
    {
        for (std::size_t i = 0; i < tokens.size(); i++) {
            if (tokens[i] != "--" + name)
                continue;
            tokens.erase(tokens.begin() + static_cast<long>(i));
            return true;
        }
        return false;
    }

    /** Whatever is left (positional arguments); flags left over are
     *  an error the caller reports. */
    const std::vector<std::string> &rest() const { return tokens; }

    void
    expectConsumed() const
    {
        for (const auto &t : tokens) {
            fatal("siqsim: unrecognized argument '", t,
                  "' (see siqsim --help)");
        }
    }

  private:
    std::vector<std::string> tokens;
};

long
toLong(const std::string &name, const std::string &value)
{
    std::size_t end = 0;
    long v = 0;
    try {
        v = std::stol(value, &end);
    } catch (const std::exception &) {
        end = 0;
    }
    if (end != value.size())
        fatal("siqsim: --", name, " expects an integer, got '", value,
              "'");
    return v;
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : csv) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

/** Write to a file, or stdout for "-"; fatal on IO errors. */
void
writeOut(const std::string &path,
         const std::function<void(std::ostream &)> &write)
{
    if (path == "-") {
        write(std::cout);
        return;
    }
    std::ofstream os(path, std::ios::trunc);
    if (os)
        write(os);
    os.flush();
    if (!os)
        fatal("siqsim: cannot write '", path, "'");
    std::cerr << "wrote " << path << "\n";
}

/** One-line cache-counter summary: the `siqsim run` stderr line and
 *  the `status --cache` per-file lines share this format. */
std::string
cacheSummary(const sim::SweepCacheStats &c)
{
    std::ostringstream os;
    os << "workloads " << c.workloadHits << "/"
       << c.workloadBuilds + c.workloadHits << " hits, compile "
       << c.compileHits << "/" << c.compileBuilds + c.compileHits
       << " hits";
    return os.str();
}

/** The canonical exports shared by `run` and `merge`. */
struct ExportPaths
{
    std::optional<std::string> json, csv, powerCsv;
    std::string baseline = "baseline";

    void
    take(Args &args)
    {
        json = args.option("json");
        csv = args.option("csv");
        powerCsv = args.option("power-csv");
        if (auto b = args.option("baseline"))
            baseline = *b;
    }

    void
    emit(sim::SweepResult result) const
    {
        sim::canonicalize(result);
        if (json) {
            writeOut(*json, [&](std::ostream &os) {
                sim::writeJson(os, result);
            });
        }
        if (csv) {
            writeOut(*csv, [&](std::ostream &os) {
                sim::writeCsv(os, result);
            });
        }
        if (powerCsv) {
            writeOut(*powerCsv, [&](std::ostream &os) {
                sim::writePowerCsv(os, result, baseline);
            });
        }
    }
};

/**
 * Apply one `PATH=VALUE` edit to a spec tree (sim::specTree). PATH is
 * a top-level spec key ("seeds") or a dotted config field, relative
 * to "base" ("core.iq.bankSize") or not ("base.minHint"); VALUE is a
 * JSON value, or plain text for a string field. Unknown paths and
 * kind mismatches fail here naming the path; ranges are the spec
 * reader's to check.
 */
void
setField(json::Value &tree, const std::string &edit)
{
    const auto eq = edit.find('=');
    if (eq == std::string::npos || eq == 0)
        fatal("siqsim: --set expects PATH=VALUE, got '", edit, "'");
    const std::string path = edit.substr(0, eq);
    const std::string text = edit.substr(eq + 1);

    std::vector<std::string> keys;
    std::istringstream is(path);
    for (std::string k; std::getline(is, k, '.');)
        keys.push_back(k);
    json::Value *node = tree.find(keys.front()) ? &tree : tree.find("base");
    for (const auto &k : keys) {
        node = node->kind == json::Value::Kind::Object ? node->find(k)
                                                        : nullptr;
        if (node == nullptr)
            fatal("siqsim: --set: unknown field '", path, "'");
    }

    json::Value value;
    value.kind = json::Value::Kind::String;
    value.token = text;
    if (node->kind != json::Value::Kind::String) {
        try {
            value = json::parse(text);
        } catch (const FatalError &) {
            // not JSON: left as text, which the kind check rejects
        }
    }
    if (value.kind != node->kind) {
        static const char *const kinds[] = {
            "null", "a boolean", "a number", "a string", "an array",
            "an object"};
        fatal("siqsim: ", path, " expects ",
              kinds[static_cast<int>(node->kind)], ", got '", text, "'");
    }
    *node = std::move(value);
}

/** @p spec with @p edits applied, read back through the spec reader,
 *  which range-checks every field and validates the config, naming
 *  the field on failure. */
sim::SweepSpec
edited(const sim::SweepSpec &spec, const std::vector<std::string> &edits)
{
    json::Value tree = sim::specTree(spec);
    for (const auto &e : edits)
        setField(tree, e);
    return sim::specFromJson(tree);
}

int
cmdSpec(Args args)
{
    sim::SweepSpec spec;
    if (const auto from = args.option("spec")) {
        std::ifstream is(*from);
        if (!is)
            fatal("siqsim spec: cannot read '", *from, "'");
        spec = sim::readSpecJson(is);
    } else {
        spec.benchmarks = workloads::familyNames();
        spec.techniques = sim::techniqueNames();
    }
    // --workloads is the primary spelling; --benchmarks is kept as a
    // compatibility alias (both accept workload specs, not just names)
    auto workloadsOpt = args.option("workloads");
    auto benchmarksOpt = args.option("benchmarks");
    if (workloadsOpt && benchmarksOpt)
        fatal("siqsim: --workloads and --benchmarks are aliases; "
              "pass only one");
    if (!workloadsOpt)
        workloadsOpt = benchmarksOpt;
    if (workloadsOpt) {
        spec.benchmarks = *workloadsOpt == "all"
                              ? workloads::familyNames()
                              : splitList(*workloadsOpt);
    }
    if (auto v = args.option("techniques")) {
        spec.techniques =
            *v == "all" ? sim::techniqueNames() : splitList(*v);
    }
    // canonicalize and validate now, so a typo fails here with the
    // registered families listed instead of deep inside a run
    for (auto &b : spec.benchmarks)
        b = workloads::canonicalWorkload(b);
    for (const auto &t : spec.techniques) {
        if (sim::findTechnique(t) == nullptr)
            fatal("siqsim: unknown technique '", t, "' (try 'siqsim "
                  "list')");
    }

    // every field edit goes through one setter: the flag aliases
    // first, then each --set in order
    std::vector<std::string> edits;
    static const std::pair<const char *, const char *> aliases[] = {
        {"warmup", "warmupInsts"},
        {"measure", "measureInsts"},
        {"seeds", "seeds"},
        {"jobs", "jobs"},
        {"scale", "workload.scale"},
        {"rep-divisor", "workload.repDivisor"},
        {"seed", "workload.seed"},
    };
    for (const auto &[flag, path] : aliases) {
        if (auto v = args.option(flag))
            edits.push_back(std::string(path) + "=" + *v);
    }
    if (args.flag("speculative"))
        edits.push_back("core.specFrontEnd=true");
    while (auto v = args.option("set"))
        edits.push_back(*v);
    const std::string out = args.option("out").value_or("-");
    args.expectConsumed();

    spec = edited(spec, edits);
    writeOut(out, [&](std::ostream &os) {
        sim::writeSpecJson(os, spec);
    });
    return 0;
}

int
cmdRun(Args args)
{
    const auto specPath = args.option("spec");
    if (!specPath)
        fatal("siqsim run: --spec FILE is required");
    std::ifstream is(*specPath);
    if (!is)
        fatal("siqsim run: cannot read '", *specPath, "'");
    std::vector<std::string> edits;
    for (const char *key : {"jobs", "seeds"}) {
        if (auto v = args.option(key))
            edits.push_back(std::string(key) + "=" + *v);
    }
    const sim::SweepSpec spec = edited(sim::readSpecJson(is), edits);

    const auto shardText = args.option("shard");
    const auto ckptDir = args.option("ckpt");

    ExportPaths exports;
    exports.take(args);
    args.expectConsumed();

    sim::ShardPlan shard;
    if (shardText)
        shard = sim::parseShard(*shardText);
    if (shard.count > 1 && !ckptDir) {
        fatal("siqsim run: --shard produces a partial matrix and "
              "needs --ckpt DIR to publish it for 'siqsim merge'");
    }

    const std::size_t ncells =
        spec.benchmarks.size() * spec.techniques.size();
    std::cerr << "siqsim run: " << spec.benchmarks.size()
              << " benchmarks x " << spec.techniques.size()
              << " techniques = " << ncells << " cells";
    if (shard.count > 1)
        std::cerr << ", shard " << sim::toString(shard);
    std::cerr << "\n";

    sim::ExperimentRunner runner;
    if (!ckptDir) {
        auto result = runner.run(spec);
        std::cerr << "done: " << result.cells.size() << " cells in "
                  << result.wallSeconds << "s on " << result.jobsUsed
                  << " thread(s)\n"
                  << "caches: " << cacheSummary(result.cache) << "\n";
        exports.emit(std::move(result));
        return 0;
    }

    const auto outcome =
        sim::runWithCheckpoints(runner, spec, shard, *ckptDir);
    // publish this invocation's counters beside the checkpoints so
    // 'siqsim status --cache' can report them later
    sim::writeCacheStatsFile(*ckptDir, shard, runner.cacheStats());
    std::cerr << "shard " << sim::toString(shard) << ": owns "
              << outcome.cellsOwned << "/" << outcome.cellsTotal
              << " cells, resumed " << outcome.cellsResumed
              << ", simulated " << outcome.cellsRun << "\n"
              << "caches: " << cacheSummary(runner.cacheStats())
              << "\n";
    if (!outcome.complete) {
        std::cerr << "run directory incomplete: run the remaining "
                     "shards, then 'siqsim merge "
                  << *ckptDir << "'\n";
        if (exports.json || exports.csv || exports.powerCsv) {
            warn("exports not written: the matrix is still partial "
                 "(they are emitted by the completing shard or by "
                 "'siqsim merge')");
        }
        return 0;
    }
    std::cerr << "all " << outcome.cellsTotal
              << " cells checkpointed; emitting merged matrix\n";
    exports.emit(outcome.merged);
    return 0;
}

int
cmdMerge(Args args)
{
    ExportPaths exports;
    exports.take(args);
    std::vector<fs::path> dirs;
    for (const auto &t : args.rest()) {
        if (t.rfind("--", 0) == 0)
            fatal("siqsim merge: unrecognized option '", t, "'");
        dirs.emplace_back(t);
    }
    if (dirs.empty())
        fatal("siqsim merge: at least one checkpoint directory is "
              "required");
    auto result = sim::mergeCheckpoints(dirs);
    std::cerr << "merged " << result.cells.size() << " cells from "
              << dirs.size() << " dir(s)";
    if (result.seeds > 1)
        std::cerr << " (" << result.seeds << " seeds per cell)";
    std::cerr << "\n";
    if (!exports.json && !exports.csv && !exports.powerCsv)
        warn("no --json/--csv/--power-csv given: nothing written");
    exports.emit(std::move(result));
    return 0;
}

int
cmdStatus(Args args)
{
    const auto shardsOpt = args.option("shards");
    const bool showCache = args.flag("cache");
    std::vector<std::string> dirs = args.rest();
    if (dirs.size() != 1)
        fatal("siqsim status: exactly one run directory is required");
    const fs::path dir = dirs.front();
    const fs::path specPath = dir / "spec.json";
    std::ifstream is(specPath);
    if (!is) {
        fatal("siqsim status: cannot read '", specPath.string(),
              "' (not a checkpoint run directory?)");
    }
    const sim::SweepSpec spec = sim::readSpecJson(is);

    const std::size_t nb = spec.benchmarks.size();
    const std::vector<bool> have = sim::scanCheckpoints(dir, spec);
    std::size_t done = 0;
    for (const bool h : have)
        done += h ? 1 : 0;

    std::cout << "run dir: " << dir.string() << "\n"
              << "grid: " << nb << " benchmarks x "
              << spec.techniques.size() << " techniques = "
              << have.size() << " cells";
    if (spec.seeds > 1)
        std::cout << " (" << spec.seeds << " seeds per cell)";
    std::cout << "\ncheckpointed: " << done << "/" << have.size()
              << "\n";

    if (shardsOpt) {
        const long n = toLong("shards", *shardsOpt);
        if (n < 1)
            fatal("siqsim status: --shards must be >= 1");
        for (int s = 0; s < n; s++) {
            const sim::ShardPlan plan{s, static_cast<int>(n)};
            std::size_t owned = 0;
            std::size_t ownedDone = 0;
            for (std::size_t i = 0; i < have.size(); i++) {
                if (!sim::ownsCell(plan, i))
                    continue;
                owned++;
                ownedDone += have[i] ? 1 : 0;
            }
            std::cout << "shard " << sim::toString(plan) << ": "
                      << ownedDone << "/" << owned << " done"
                      << (ownedDone == owned ? "" : " — incomplete")
                      << "\n";
        }
    }

    if (showCache) {
        const auto stats = sim::readCacheStatsFiles(dir);
        if (stats.empty()) {
            std::cout << "cache stats: none recorded (written by "
                         "'siqsim run --ckpt')\n";
        }
        for (const auto &[name, c] : stats)
            std::cout << name << ": " << cacheSummary(c) << "\n";
    }

    if (done < have.size()) {
        constexpr std::size_t listCap = 20;
        std::size_t listed = 0;
        std::cout << "missing cells:\n";
        for (std::size_t i = 0; i < have.size(); i++) {
            if (have[i])
                continue;
            if (listed++ == listCap) {
                std::cout << "  ... and "
                          << have.size() - done - listCap
                          << " more\n";
                break;
            }
            std::cout << "  " << i << ": "
                      << spec.techniques[i / nb] << "/"
                      << spec.benchmarks[i % nb] << "\n";
        }
        return 3;
    }
    std::cout << "complete: ready for 'siqsim merge "
              << dir.string() << "'\n";
    return 0;
}

int
cmdTable(Args args)
{
    const auto &rest = args.rest();
    for (const auto &t : rest) {
        if (t.rfind("--", 0) == 0)
            fatal("siqsim table: unrecognized option '", t, "'");
    }
    if (rest.empty())
        fatal("siqsim table: NAME is required (see siqsim --help)");
    cli::printTable(rest.front(), {rest.begin() + 1, rest.end()},
                    std::cout);
    return 0;
}

int
cmdList()
{
    std::cout << "workload families:\n";
    for (const auto &name : workloads::familyNames()) {
        const auto *def = workloads::findFamily(name);
        std::cout << "  " << name << " — "
                  << (def ? def->summary : std::string()) << "\n";
        if (def == nullptr)
            continue;
        for (const auto &p : def->params) {
            std::cout << "      " << p.name << "=" << p.defaultValue
                      << " [" << p.minValue << ".." << p.maxValue
                      << "] — " << p.help << "\n";
        }
    }
    std::cout << "techniques:\n";
    for (const auto &t : sim::techniqueNames()) {
        const auto *def = sim::findTechnique(t);
        std::cout << "  " << t << " — "
                  << (def ? def->summary : std::string()) << "\n";
    }
    return 0;
}

int
cmdServe(Args args)
{
    const auto socket = args.option("socket");
    const bool stdio = args.flag("stdio");
    const auto jobs = args.option("jobs");
    args.expectConsumed();
    if (stdio == socket.has_value()) {
        fatal("serve: pass exactly one of --socket PATH or --stdio");
    }

    auto opts = sim::ServeEngine::optionsFromEnv();
    if (!opts)
        fatal(opts.error());
    if (jobs) {
        const long n = toLong("jobs", *jobs);
        if (n < 0 || n > std::numeric_limits<int>::max())
            fatal("siqsim serve: --jobs must be in [0, ",
                  std::numeric_limits<int>::max(), "], got ", n);
        opts.value().jobs = static_cast<int>(n);
    }

    sim::ServeEngine engine(opts.value());
    if (stdio) {
        sim::serveStdio(engine, std::cin, std::cout);
        return 0;
    }
    sim::serveUnixSocket(engine, *socket, &std::cerr);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(std::cerr, 2);
    const std::string cmd = argv[1];
    try {
        if (cmd == "--help" || cmd == "-h" || cmd == "help")
            return usage(std::cout, 0);
        if (cmd == "spec")
            return cmdSpec(Args(argc, argv, 2));
        if (cmd == "run")
            return cmdRun(Args(argc, argv, 2));
        if (cmd == "merge")
            return cmdMerge(Args(argc, argv, 2));
        if (cmd == "status")
            return cmdStatus(Args(argc, argv, 2));
        if (cmd == "table")
            return cmdTable(Args(argc, argv, 2));
        if (cmd == "list")
            return cmdList();
        if (cmd == "serve")
            return cmdServe(Args(argc, argv, 2));
        std::cerr << "siqsim: unknown command '" << cmd << "'\n\n";
        return usage(std::cerr, 2);
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
