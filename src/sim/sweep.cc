#include "sim/sweep.hh"

#include <atomic>
#include <chrono>
#include <compare>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "common/stats.hh"
#include "sim/report.hh"
#include "sim/technique.hh"
#include "workloads/family.hh"

namespace siq::sim
{

namespace
{

/** What a generated workload depends on. */
struct WorkloadKey
{
    std::string benchmark;
    workloads::WorkloadParams params;

    auto operator<=>(const WorkloadKey &) const = default;
};

/** What an annotated program depends on: its workload and every
 *  compiler knob (CompilerConfig's own ordering). */
struct CompileKey
{
    WorkloadKey workload;
    compiler::CompilerConfig config;

    auto operator<=>(const CompileKey &) const = default;
};

/** A cached program plus its build metadata. */
struct CachedProgram
{
    std::shared_ptr<const Program> prog;
    compiler::CompileStats compile; ///< empty for raw workloads
    double buildSeconds = 0.0;
};

/**
 * Build-once map: the first requester of a key builds under a
 * shared_future, concurrent requesters block on it, later requesters
 * hit. Build/hit counting happens under the map lock so the totals
 * are exact.
 */
template <typename Key>
class ProgramCache
{
  public:
    CachedProgram
    get(const Key &key,
        const std::function<CachedProgram()> &build,
        std::atomic<std::uint64_t> &builds,
        std::atomic<std::uint64_t> &hits)
    {
        std::promise<CachedProgram> promise;
        std::shared_future<CachedProgram> future;
        bool builder = false;
        {
            std::lock_guard lock(mu);
            auto it = map.find(key);
            if (it == map.end()) {
                future = promise.get_future().share();
                map.emplace(key, future);
                builder = true;
                builds++;
            } else {
                future = it->second;
            }
        }
        if (builder) {
            try {
                promise.set_value(build());
            } catch (...) {
                // don't poison the key: concurrent waiters get the
                // exception, but later requesters retry the build
                {
                    std::lock_guard lock(mu);
                    map.erase(key);
                    builds--; // nothing was actually built
                }
                promise.set_exception(std::current_exception());
            }
            return future.get();
        }
        CachedProgram shared = future.get(); // throws if build failed
        hits++; // only successful shares count
        return shared;
    }

  private:
    std::mutex mu;
    std::map<Key, std::shared_future<CachedProgram>> map;
};

MetricAggregate
summarize(const stats::RunningStats &w)
{
    return {w.mean(), w.stddev(), w.ci95()};
}

/**
 * Fold one cell's replicas (contiguous, replica order) into per-metric
 * aggregates. Runs after the worker pool joins and visits replicas in
 * index order, so the aggregate never depends on scheduling.
 */
CellAggregate
aggregateReplicas(const RunResult *reps, std::size_t n)
{
    CellAggregate agg;
    agg.n = n;
    stats::RunningStats w;
#define X(f)                                                             \
    w.reset();                                                           \
    for (std::size_t r = 0; r < n; r++)                                  \
        w.sample(static_cast<double>(reps[r].stats.f));                  \
    agg.stats_##f = summarize(w);
    SIQ_CORE_STATS_FIELDS(X)
    SIQ_CORE_SPEC_STATS_FIELDS(X)
#undef X
#define X(f)                                                             \
    w.reset();                                                           \
    for (std::size_t r = 0; r < n; r++)                                  \
        w.sample(static_cast<double>(reps[r].iq.f));                     \
    agg.iq_##f = summarize(w);
    SIQ_IQ_EVENT_FIELDS(X)
#undef X
    w.reset();
    for (std::size_t r = 0; r < n; r++)
        w.sample(reps[r].ipc());
    agg.ipc = summarize(w);
    return agg;
}

} // namespace

struct ExperimentRunner::Impl
{
    int defaultJobs;
    ProgramCache<WorkloadKey> workloads;
    ProgramCache<CompileKey> compiled;
    std::atomic<std::uint64_t> workloadBuilds{0};
    std::atomic<std::uint64_t> workloadHits{0};
    std::atomic<std::uint64_t> compileBuilds{0};
    std::atomic<std::uint64_t> compileHits{0};

    RunResult runCell(const CellKey &key, const TechniqueDef &def,
                      const RunConfig &cfg);
};

RunResult
ExperimentRunner::Impl::runCell(const CellKey &key,
                                const TechniqueDef &def,
                                const RunConfig &cfg)
{
    const WorkloadKey wkey{key.benchmark, cfg.workload};
    const CachedProgram raw = workloads.get(
        wkey,
        [&] {
            CachedProgram built;
            const auto t0 = std::chrono::steady_clock::now();
            built.prog = std::make_shared<const Program>(
                workloads::generate(key.benchmark, cfg.workload));
            built.buildSeconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            return built;
        },
        workloadBuilds, workloadHits);

    CachedProgram toRun = raw;
    if (def.compilerConfig) {
        if (const auto cc = def.compilerConfig(cfg)) {
            toRun = compiled.get(
                CompileKey{wkey, *cc},
                [&] {
                    CachedProgram built;
                    Program annotated = *raw.prog;
                    built.compile = compiler::annotate(annotated, *cc);
                    built.prog = std::make_shared<const Program>(
                        std::move(annotated));
                    built.buildSeconds = raw.buildSeconds;
                    return built;
                },
                compileBuilds, compileHits);
        }
    }

    RunResult result = simulateProgram(*toRun.prog, def, cfg);
    result.benchmark = key.benchmark;
    result.generateSeconds = raw.buildSeconds;
    result.compile = toRun.compile;
    result.compileSeconds = toRun.compile.seconds;
    return result;
}

ExperimentRunner::ExperimentRunner(int jobs)
    : impl(std::make_unique<Impl>())
{
    impl->defaultJobs = jobs;
}

ExperimentRunner::~ExperimentRunner() = default;

SweepCacheStats
ExperimentRunner::cacheStats() const
{
    SweepCacheStats s;
    s.workloadBuilds = impl->workloadBuilds.load();
    s.workloadHits = impl->workloadHits.load();
    s.compileBuilds = impl->compileBuilds.load();
    s.compileHits = impl->compileHits.load();
    return s;
}

std::uint64_t
ExperimentRunner::mixSeed(std::uint64_t base, std::uint64_t a,
                          std::uint64_t b)
{
    // splitmix64 over the packed coordinates
    std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (a * 0x10001 + b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

SweepResult
ExperimentRunner::run(const SweepSpec &spec)
{
    return run(spec, CellHooks{});
}

SweepResult
ExperimentRunner::run(const SweepSpec &spec, const CellHooks &hooks)
{
    const auto t0 = std::chrono::steady_clock::now();

    SweepResult result;
    // canonicalize every workload up front: unknown families fail
    // fast (with the registered list in the message), and cells,
    // cache keys and exports all carry the one canonical spelling —
    // the invariant the byte-identical shard-merge guarantee keys on
    result.benchmarks.reserve(spec.benchmarks.size());
    for (const auto &b : spec.benchmarks)
        result.benchmarks.push_back(workloads::canonicalWorkload(b));
    result.techniques = spec.techniques;

    // resolve every technique up front so unknown names fail fast,
    // before any thread spawns or simulation starts
    std::vector<const TechniqueDef *> defs;
    defs.reserve(spec.techniques.size());
    for (const auto &name : spec.techniques) {
        const TechniqueDef *def = findTechnique(name);
        if (def == nullptr)
            fatal("sweep over unknown technique: ", name);
        defs.push_back(def);
    }

    const std::size_t nb = spec.benchmarks.size();
    const std::size_t nt = spec.techniques.size();
    const std::size_t ncells = nb * nt;
    if (spec.seeds < 1)
        fatal("SweepSpec::seeds must be >= 1, got ", spec.seeds);
    result.seeds = spec.seeds;

    // the cells this invocation actually executes (all of them for a
    // plain run; a shard / resume passes a filter). The filter is
    // consulted once per cell, in stable index order, so a partition
    // over the cell index is deterministic no matter the job count.
    std::vector<std::size_t> cellsToRun;
    cellsToRun.reserve(ncells);
    for (std::size_t i = 0; i < ncells; i++) {
        if (!hooks.shouldRun || hooks.shouldRun(i))
            cellsToRun.push_back(i);
    }

    const std::size_t nrun = cellsToRun.size();
    const std::size_t nreps = static_cast<std::size_t>(spec.seeds);
    result.cells.resize(ncells);
    if (nreps > 1)
        result.aggregates.resize(ncells);
    if (nrun == 0) {
        result.cache = cacheStats();
        return result;
    }

    // one task per (executed cell, replica); replicas of a cell are
    // contiguous so aggregation reads them in replica order
    const std::size_t ntasks = nrun * nreps;
    std::vector<RunResult> replicas(ntasks);
    // per-cell countdown of unfinished replicas: the worker that
    // finishes a cell's last replica aggregates it and reports it
    // through onCellDone while other cells are still in flight
    std::unique_ptr<std::atomic<std::size_t>[]> remaining(
        new std::atomic<std::size_t>[nrun]);
    std::unique_ptr<std::atomic<bool>[]> poisoned(
        new std::atomic<bool>[nrun]);
    // execution-time verdict per cell: 0 = undecided, 1 = run,
    // 2 = skip. shouldRun is consulted a second time when a cell's
    // first replica is picked up, so a filter that turns false while
    // the sweep is in flight (request cancellation — sim/serve.cc)
    // drains the remaining cells instead of simulating them.
    std::unique_ptr<std::atomic<std::uint8_t>[]> verdict(
        new std::atomic<std::uint8_t>[nrun]);
    for (std::size_t i = 0; i < nrun; i++) {
        remaining[i].store(nreps, std::memory_order_relaxed);
        poisoned[i].store(false, std::memory_order_relaxed);
        verdict[i].store(0, std::memory_order_relaxed);
    }

    // all replicas of a cell must agree on the verdict (a cell half
    // run and half skipped would aggregate garbage): the first
    // replica to decide publishes via CAS, racers adopt the winner
    auto cellRuns = [&](std::size_t slot) {
        std::uint8_t v = verdict[slot].load(std::memory_order_acquire);
        if (v == 0) {
            std::uint8_t want =
                (!hooks.shouldRun || hooks.shouldRun(cellsToRun[slot]))
                    ? 1
                    : 2;
            if (verdict[slot].compare_exchange_strong(
                    v, want, std::memory_order_acq_rel))
                v = want;
            // on CAS failure v holds the winner's value
        }
        return v == 1;
    };

    int jobs = spec.jobs != 0 ? spec.jobs : impl->defaultJobs;
    if (jobs <= 0)
        jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0)
        jobs = 1;
    if (static_cast<std::size_t>(jobs) > ntasks)
        jobs = static_cast<int>(ntasks);

    std::atomic<std::size_t> nextTask{0};
    std::mutex errorMu;
    std::exception_ptr firstError;

    auto makeKey = [&](std::size_t cellIdx, std::size_t rep) {
        CellKey key;
        key.techIdx = cellIdx / nb;
        key.benchIdx = cellIdx % nb;
        key.rep = rep;
        key.benchmark = result.benchmarks[key.benchIdx];
        key.technique = spec.techniques[key.techIdx];
        return key;
    };

    auto work = [&] {
        for (std::size_t j = nextTask.fetch_add(1); j < ntasks;
             j = nextTask.fetch_add(1)) {
            {
                std::lock_guard lock(errorMu);
                if (firstError)
                    return; // abandon remaining tasks
            }
            const std::size_t slot = j / nreps;
            const CellKey key = makeKey(cellsToRun[slot], j % nreps);
            if (!cellRuns(slot)) {
                // cancelled since scheduling: fall through to the
                // countdown so the sweep still joins cleanly, but
                // leave the cell unreported and its slot default
                remaining[slot].fetch_sub(1,
                                          std::memory_order_acq_rel);
                continue;
            }
            try {
                RunConfig cfg = spec.base;
                // decorrelate replicas; replica 0 keeps the
                // configured seed (seeds=1 == status quo)
                if (key.rep > 0) {
                    cfg.workload.seed = mixSeed(cfg.workload.seed,
                                                key.rep, 0);
                }

                replicas[j] =
                    impl->runCell(key, *defs[key.techIdx], cfg);
            } catch (...) {
                poisoned[slot].store(true, std::memory_order_relaxed);
                std::lock_guard lock(errorMu);
                if (!firstError)
                    firstError = std::current_exception();
            }
            // acq_rel: the finisher must see every sibling replica
            // written by other workers before it aggregates the cell
            if (remaining[slot].fetch_sub(
                    1, std::memory_order_acq_rel) == 1 &&
                !poisoned[slot].load(std::memory_order_relaxed)) {
                const std::size_t cellIdx = cellsToRun[slot];
                const RunResult *reps = &replicas[slot * nreps];
                const CellAggregate *agg = nullptr;
                if (nreps > 1) {
                    result.aggregates[cellIdx] =
                        aggregateReplicas(reps, nreps);
                    agg = &result.aggregates[cellIdx];
                }
                if (hooks.onCellDone) {
                    try {
                        hooks.onCellDone(cellIdx, makeKey(cellIdx, 0),
                                         reps[0], agg);
                    } catch (...) {
                        // e.g. a checkpoint write hitting a full disk:
                        // abort the sweep cleanly instead of
                        // terminating the worker thread
                        std::lock_guard lock(errorMu);
                        if (!firstError)
                            firstError = std::current_exception();
                    }
                }
            }
        }
    };

    if (jobs == 1) {
        work();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(jobs));
        for (int j = 0; j < jobs; j++)
            pool.emplace_back(work);
        for (auto &t : pool)
            t.join();
    }
    if (firstError)
        std::rethrow_exception(firstError);

    for (std::size_t slot = 0; slot < nrun; slot++)
        result.cells[cellsToRun[slot]] = std::move(replicas[slot * nreps]);

    result.jobsUsed = jobs;
    result.cache = cacheStats();
    result.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return result;
}

const RunResult &
SweepResult::at(const std::string &technique,
                std::size_t benchIdx) const
{
    for (std::size_t t = 0; t < techniques.size(); t++) {
        if (techniques[t] == technique)
            return at(t, benchIdx);
    }
    fatal("technique '", technique, "' not in this sweep");
}

const CellAggregate &
SweepResult::aggAt(std::size_t techIdx, std::size_t benchIdx) const
{
    if (aggregates.empty())
        fatal("sweep was not replicated (seeds == 1): no aggregates");
    return aggregates[techIdx * benchmarks.size() + benchIdx];
}

const CellAggregate &
SweepResult::aggAt(const std::string &technique,
                   std::size_t benchIdx) const
{
    for (std::size_t t = 0; t < techniques.size(); t++) {
        if (techniques[t] == technique)
            return aggAt(t, benchIdx);
    }
    fatal("technique '", technique, "' not in this sweep");
}

bool
identicalMeasurement(const RunResult &a, const RunResult &b)
{
    return a.benchmark == b.benchmark && a.technique == b.technique &&
           a.stats == b.stats && a.iq == b.iq
#define X(f) &&a.compile.f == b.compile.f
               SIQ_COMPILE_STATS_FIELDS(X)
#undef X
        ;
}

} // namespace siq::sim
