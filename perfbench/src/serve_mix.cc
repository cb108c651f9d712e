/**
 * @file
 * The serve-mix workload: closed-loop clients with zero think time
 * against one in-process ServeEngine (jobs=1 per request). Each client
 * keeps one request in flight. Requests are small valid specs drawn
 * from the run's seed: 40% repeat a small hot set (answered by the
 * engine's result cache once warm), the rest are new cells on a bounded
 * population of programs, synthesized and annotated on first use.
 *
 * The run alternates single-client and C-client segments, so the
 * unloaded and the loaded service rate are both measured; latency
 * percentiles come from the C-client segments.
 */

#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <mutex>
#include <thread>

#include "common/json.hh"
#include "layers.hh"
#include "matrix.hh"
#include "sim/report.hh"
#include "sim/serve.hh"
#include "workloads/family.hh"

namespace siqb
{

using namespace siq;

namespace
{

constexpr std::uint64_t kPinSeed = 1;
/** Hot-set size. Hot spec i carries 1 + i % 3 techniques, so the
 *  cached share of cells does not depend on the seed. */
constexpr std::size_t kHotSet = 24;
/** Hot share, kept clear of one half so the latency median sits
 *  inside the fresh-request mode rather than between the two modes. */
constexpr std::uint64_t kHotPercent = 40;

/** Workload seeds per family a run draws from. The engine's program
 *  caches never evict, so unbounded fresh seeds grow a daemon's memory
 *  without limit; a bounded population keeps a run's footprint fixed. */
constexpr std::uint64_t kSeedsPerFamily = 3;

/** Budgets of serve requests (short: serving cost dominates). The
 *  measured budget varies per request, so fresh requests are new cells
 *  the result cache cannot answer. */
void
serveBudget(sim::RunConfig &cfg, std::uint64_t h, bool tiny)
{
    cfg.warmupInsts = tiny ? 500 : 2000;
    cfg.measureInsts = (tiny ? 2000 : 6000) + h % 4096;
}

/** One request spec: one family, @p k distinct techniques (0: 1–3
 *  drawn from @p h). */
sim::SweepSpec
drawSpec(std::uint64_t runSeed, std::uint64_t h, bool tiny,
         std::size_t k = 0)
{
    static const std::vector<std::string> families =
        workloads::familyNames();
    const auto &techs = builtinTechniques();
    sim::SweepSpec spec;
    const std::uint64_t fam = (h >> 8) % families.size();
    spec.benchmarks = {families[fam]};
    if (k == 0)
        k = 1 + (h >> 16) % 3;
    std::uint64_t pick = sim::ExperimentRunner::mixSeed(h, 5, 0);
    while (spec.techniques.size() < k) {
        const std::string &t = techs[pick % techs.size()];
        pick = sim::ExperimentRunner::mixSeed(pick, 5, 1);
        bool dup = false;
        for (const auto &have : spec.techniques)
            dup = dup || have == t;
        if (!dup)
            spec.techniques.push_back(t);
    }
    spec.base.workload.seed = sim::ExperimentRunner::mixSeed(
        runSeed, fam * 64 + (h >> 32) % kSeedsPerFamily, 13);
    serveBudget(spec.base, h >> 24, tiny);
    spec.seeds = 1;
    spec.jobs = 0; // the engine's jobs=1 applies
    return spec;
}

/** A spec JSON document as one JSONL request line: raw newlines only
 *  ever separate tokens (strings carry them escaped), so drop them. */
std::string
oneLine(std::string s)
{
    std::erase(s, '\n');
    return s;
}

/** Request k of a run: a pure function of (seed, k). */
struct Generator
{
    std::uint64_t seed;
    bool tiny;
    std::vector<std::string> hot; ///< spec JSON of the hot set

    Generator(std::uint64_t s, bool t) : seed(s), tiny(t)
    {
        for (std::size_t i = 0; i < kHotSet; i++) {
            hot.push_back(oneLine(sim::toJson(
                drawSpec(seed, sim::ExperimentRunner::mixSeed(seed, i, 11),
                         tiny, 1 + i % 3))));
        }
    }

    /** The spec JSON of request @p k. */
    std::string
    spec(std::uint64_t k) const
    {
        const std::uint64_t h = sim::ExperimentRunner::mixSeed(seed, k, 7);
        if (h % 100 < kHotPercent)
            return hot[(h >> 40) % hot.size()];
        return oneLine(sim::toJson(drawSpec(seed, h, tiny)));
    }
};

/** Send one request and return its terminal (done/error) record. */
std::string
serveOnce(sim::ServeEngine::Client &client, const std::string &id,
          const std::string &specText)
{
    client.submitLine("{\"id\":" + json::quote(id) + ",\"spec\":" +
                      specText + "}");
    std::string rec;
    while (client.nextRecord(rec)) {
        if (rec.find("\"event\":\"done\"") != std::string::npos ||
            rec.find("\"event\":\"error\"") != std::string::npos)
            return rec;
    }
    return "";
}

/** A running engine with its clients connected and the hot set
 *  served once, so its result cache is warm. */
struct WarmEngine
{
    sim::ServeEngine engine;
    std::vector<std::shared_ptr<sim::ServeEngine::Client>> conns;

    WarmEngine(const Generator &gen, int clients) : engine(options())
    {
        for (int j = 0; j < clients; j++)
            conns.push_back(engine.connect());
        for (std::size_t i = 0; i < gen.hot.size(); i++) {
            const std::string rec =
                serveOnce(*conns[0], "w" + std::to_string(i), gen.hot[i]);
            const json::Value v = json::parse(rec.empty() ? "{}" : rec);
            const json::Value *ex = v.find("export");
            hotExports += ex != nullptr ? ex->asString() : "<error>";
        }
    }

    ~WarmEngine()
    {
        std::string rest;
        for (auto &conn : conns) {
            conn->endOfInput();
            while (conn->nextRecord(rest)) {
            }
        }
    }

    WarmEngine(const WarmEngine &) = delete;
    WarmEngine &operator=(const WarmEngine &) = delete;

    /** The hot set's exports, in hot-set order. */
    std::string hotExports;

    /** Engine defaults, one worker thread per request. */
    static sim::ServeEngine::Options
    options()
    {
        sim::ServeEngine::Options o;
        o.jobs = 1;
        return o;
    }
};

/** What a client saw for one request. */
struct Outcome
{
    std::uint64_t k = 0;
    int seg = 0;         ///< index of the segment it was sent in
    bool ok = false;
    std::string specText;
    std::uint64_t exportHash = 0;
    double latency = 0.0;
    double accept = 0.0;
    std::uint64_t cells = 0, simulated = 0, shared = 0, cached = 0;
    std::uint64_t cellInsts = 0;   ///< measured, all cells
    std::uint64_t warmupInsts = 0; ///< per cell
    std::string error;
};

/** Send one request and wait for its terminal record. */
Outcome
roundTrip(sim::ServeEngine::Client &client, const Generator &gen,
          std::uint64_t k, Tracer &tracer)
{
    Outcome o;
    o.k = k;
    o.specText = gen.spec(k);
    const std::int64_t rid = static_cast<std::int64_t>(k);
    {
        // the generator must emit only valid specs: invalid configs
        // can still abort the daemon
        const ScopedSpan s(tracer, "sim.report.spec_parse", -1, rid);
        const auto parsed = sim::tryReadSpecJson(o.specText);
        if (!parsed) {
            o.error = "generator emitted an invalid spec";
            return o;
        }
        o.warmupInsts = parsed.value().base.warmupInsts;
    }
    const std::string id = "r" + std::to_string(k);
    const std::string line =
        "{\"id\":" + json::quote(id) + ",\"spec\":" + o.specText + "}";
    const ScopedSpan reqSpan(tracer, "sim.serve.request", -1, rid);
    int acceptSpan = tracer.begin("sim.serve.accept", reqSpan.spanId(), rid);
    const double t0 = now();
    {
        const ScopedSpan s(tracer, "sim.serve.submit", reqSpan.spanId(),
                           rid);
        client.submitLine(line);
    }
    std::string rec;
    while (client.nextRecord(rec)) {
        const bool done = rec.find("\"event\":\"done\"") != std::string::npos;
        const bool error =
            rec.find("\"event\":\"error\"") != std::string::npos;
        if (rec.find("\"event\":\"accepted\"") != std::string::npos) {
            o.accept = now() - t0;
            tracer.end(acceptSpan);
            acceptSpan = -1;
            continue;
        }
        if (!done && !error) {
            if (rec.find("\"event\":\"cell\"") != std::string::npos) {
                const json::Value v = json::parse(rec);
                const json::Value &cell = v.at("checkpoint").at("cell");
                o.cellInsts += cell.at("stats").at("committed").asU64();
            }
            continue;
        }
        o.latency = now() - t0;
        const json::Value v = json::parse(rec);
        if (v.at("id").asString() != id) {
            o.error = "terminal record for another id";
        } else if (error) {
            o.error = v.at("error").asString();
        } else {
            o.cells = v.at("cells").asU64();
            o.simulated = v.at("cellsSimulated").asU64();
            o.shared = v.at("cellsShared").asU64();
            o.cached = v.at("cellsCached").asU64();
            const json::Value *ex = v.find("export");
            if (ex == nullptr) {
                o.error = "done record without an export";
            } else {
                o.exportHash = fnv1a64(ex->asString());
                o.ok = true;
            }
        }
        break;
    }
    tracer.end(acceptSpan);
    return o;
}

/** Closed-loop segment: @p clients threads until @p seconds pass. */
double
segment(std::vector<std::shared_ptr<sim::ServeEngine::Client>> &conns,
        int clients, double seconds, const Generator &gen,
        std::atomic<std::uint64_t> &next, std::vector<Outcome> &out,
        std::mutex &outMu, int segIdx, Tracer &tracer)
{
    const double t0 = now();
    const double end = t0 + seconds;
    std::vector<std::thread> pool;
    for (int c = 0; c < clients; c++) {
        pool.emplace_back([&, c] {
            std::vector<Outcome> mine;
            while (now() < end) {
                const std::uint64_t k = next.fetch_add(1);
                Outcome o;
                try {
                    o = roundTrip(*conns[static_cast<std::size_t>(c)], gen,
                                  k, tracer);
                } catch (const std::exception &e) {
                    o.k = k;
                    o.ok = false;
                    o.error = e.what();
                }
                o.seg = segIdx;
                mine.push_back(std::move(o));
            }
            std::lock_guard lock(outMu);
            for (Outcome &o : mine)
                out.push_back(std::move(o));
        });
    }
    for (std::thread &t : pool)
        t.join();
    return now() - t0;
}

/** Batch export hash of one spec through @p runner. */
std::uint64_t
batchExportHash(sim::ExperimentRunner &runner, const std::string &specText,
                Tracer &tracer)
{
    const sim::SweepSpec spec = sim::tryReadSpecJson(specText).value();
    sim::SweepResult result = runner.run(spec);
    const ScopedSpan s(tracer, "sim.report.export");
    return fnv1a64(canonicalExport(std::move(result)));
}

/**
 * Check every done export against a batch run of the same spec: one
 * run per distinct spec on N verifier threads sharing one batch
 * ExperimentRunner (independent of the engine's). @return the number
 * of mismatching requests.
 */
std::uint64_t
verify(const std::vector<Outcome> &outs, Tracer &tracer)
{
    std::map<std::string, std::vector<const Outcome *>> bySpec;
    for (const Outcome &o : outs) {
        if (o.ok)
            bySpec[o.specText].push_back(&o);
    }
    std::vector<const std::vector<const Outcome *> *> work;
    for (const auto &[text, group] : bySpec)
        work.push_back(&group);
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> bad{0};
    sim::ExperimentRunner runner(1);
    std::vector<std::thread> pool;
    for (int t = 0; t < parallelism(); t++) {
        pool.emplace_back([&] {
            for (std::size_t i = next.fetch_add(1); i < work.size();
                 i = next.fetch_add(1)) {
                const auto &group = *work[i];
                try {
                    const std::uint64_t want = batchExportHash(
                        runner, group.front()->specText, tracer);
                    for (const Outcome *o : group)
                        bad += o->exportHash != want;
                } catch (const std::exception &) {
                    bad += group.size();
                }
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    return bad.load();
}

/** The layer grid for serve-mix: every family × technique at the
 *  serve request budget. */
sim::SweepSpec
serveLayerSpec(std::uint64_t seed, bool tiny)
{
    sim::SweepSpec spec = matrixSpec(seed, false, tiny);
    serveBudget(spec.base, 1, tiny);
    return spec;
}

} // namespace

void
emitServeSpecs(std::uint64_t seed, int n, bool tiny)
{
    const Generator gen(seed, tiny);
    int valid = 0;
    for (int k = 0; k < n; k++) {
        const std::string text = gen.spec(static_cast<std::uint64_t>(k));
        valid += sim::tryReadSpecJson(text) ? 1 : 0;
        std::printf("%s\n", text.c_str());
    }
    std::printf("{\"specs\":%d,\"valid\":%d}\n", n, valid);
}

void
runServeMix(const Options &opts, Report &report, Tracer &tracer)
{
    const int c = parallelism();

    // correctness gate 1: the pinned hot set's digest (its exports as
    // served by a fresh engine)
    {
        const WarmEngine pinned(Generator(kPinSeed, true), 1);
        report.checkDigest(opts.pinsPath, "pin",
                           hex(fnv1a64(pinned.hotExports)), 1);
    }

    // set-up: build the engine, connect the clients and serve the hot
    // set once (median of several fresh engines)
    const Generator gen(opts.seed, opts.tiny);
    std::vector<double> setups;
    for (int i = 0; i < (opts.tiny ? 1 : 7); i++) {
        const double t0 = now();
        const WarmEngine fresh(gen, c);
        setups.push_back(now() - t0);
    }
    // the engine lives only for the traffic, so the batch verification
    // below does not add its caches to the engine's
    const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
    const double seg1 = opts.tiny ? 0.2 : 1.0;
    const double segC = opts.tiny ? 0.3 : 2.0;
    std::vector<Outcome> outs, tracedOuts;
    std::mutex outMu;
    // per segment: wall seconds and whether it ran C clients
    std::vector<std::pair<double, bool>> segs;
    double tracedWallC = 0.0;
    sim::SweepCacheStats engineCache;
    {
        WarmEngine warm(gen, c);

        // correctness gate 2: the hot set's digest at this seed
        report.checkDigest(opts.tiny ? "" : opts.pinsPath,
                           "seed-" + std::to_string(opts.seed),
                           hex(fnv1a64(warm.hotExports)), 1);

        // alternating single-client / C-client segments
        const double deadline = now() + budget;
        std::atomic<std::uint64_t> k{0};
        Tracer quiet(false);
        do {
            for (const bool loaded : {false, true}) {
                const int idx = static_cast<int>(segs.size());
                segs.push_back({segment(warm.conns, loaded ? c : 1,
                                        loaded ? segC : seg1, gen, k, outs,
                                        outMu, idx, quiet),
                                loaded});
            }
        } while (now() < deadline);

        // traced segments: same traffic with client spans on
        if (opts.trace) {
            const double tracedEnd = now() + budget / 2;
            do {
                tracedWallC += segment(warm.conns, c, segC / 2, gen, k,
                                       tracedOuts, outMu, -1, tracer);
            } while (now() < tracedEnd);
        }
        engineCache = warm.engine.cacheStats();
    }
    // the daemon's footprint: read before the batch verification,
    // whose own runner is not part of the service
    const double peakRss = peakRssMib();

    // correctness gate 3: every request completed, and every done
    // export equals a batch ExperimentRunner export of its spec
    std::vector<Outcome> all = outs;
    all.insert(all.end(), tracedOuts.begin(), tracedOuts.end());
    report.attempted += all.size();
    for (const Outcome &o : all) {
        if (!o.ok)
            report.fail(1, "request r" + std::to_string(o.k) + ": " +
                               o.error);
    }
    if (const std::uint64_t bad = verify(all, tracer))
        report.fail(bad, std::to_string(bad) +
                             " done exports differ from batch runs");

    // rates and latency quantiles per segment, median over segments of
    // each kind; latencies come from the C-client segments
    std::vector<std::vector<double>> segLat(segs.size());
    std::vector<double> acc;
    std::vector<double> segCells(segs.size()), segReqs(segs.size()),
        segInsts(segs.size());
    std::uint64_t nSim = 0, nShared = 0, nCached = 0, nCells = 0;
    for (const Outcome &o : outs) {
        if (!o.ok)
            continue;
        nSim += o.simulated;
        nShared += o.shared;
        nCached += o.cached;
        nCells += o.cells;
        const auto i = static_cast<std::size_t>(o.seg);
        segCells[i] += static_cast<double>(o.cells);
        segReqs[i] += 1.0;
        if (o.cells > 0) {
            segInsts[i] += static_cast<double>(
                (o.cellInsts + o.warmupInsts * o.cells) * o.simulated /
                o.cells);
        }
        if (segs[i].second) {
            segLat[i].push_back(o.latency);
            acc.push_back(o.accept);
        }
    }
    auto segRate = [&](const std::vector<double> &work, bool loaded) {
        std::vector<double> r;
        for (std::size_t i = 0; i < segs.size(); i++) {
            if (segs[i].second == loaded)
                r.push_back(work[i] / segs[i].first);
        }
        return median(r);
    };
    auto latency = [&](double q) {
        std::vector<double> v;
        for (std::size_t i = 0; i < segs.size(); i++) {
            if (segs[i].second)
                v.push_back(quantile(segLat[i], q));
        }
        return median(v) * 1e3;
    };
    const double cellsPerS = segRate(segCells, false);
    const double cellsPerSPar = segRate(segCells, true);
    auto e2e = [&](const char *name, double v, const char *unit) {
        report.e2e.push_back({name, v, unit});
    };
    e2e("setup_s", median(setups), "s");
    e2e("cells_per_s", cellsPerS, "cells/s");
    e2e("cells_per_s_par", cellsPerSPar, "cells/s");
    e2e("sim_minst_per_s", segRate(segInsts, false) / 1e6, "Minst/s");
    e2e("latency_p50_ms", latency(0.50), "ms");
    e2e("latency_p95_ms", latency(0.95), "ms");
    e2e("peak_rss_mib", peakRss, "MiB");
    auto detail = [&](const std::string &name, double v, const char *unit) {
        report.detail.push_back({name, v, unit});
    };
    detail("serve_req_per_s", segRate(segReqs, true), "req/s");
    detail("serve_req_per_s_1client", segRate(segReqs, false), "req/s");
    detail("segments", static_cast<double>(segs.size()), "count");
    detail("latency_samples", static_cast<double>(acc.size()), "count");
    detail("sim.serve.accept_ms", quantile(acc, 0.50) * 1e3, "ms");
    detail("sim.serve.dedupe_frac",
           nCells ? static_cast<double>(nShared + nCached) /
                        static_cast<double>(nCells)
                  : 0.0,
           "fraction");
    detail("sim.serve.cells_simulated", static_cast<double>(nSim), "count");
    detail("sim.serve.cells_shared", static_cast<double>(nShared), "count");
    detail("sim.serve.cells_cached", static_cast<double>(nCached), "count");

    if (opts.trace) {
        std::vector<double> tlat;
        std::uint64_t tcells = 0;
        for (const Outcome &o : tracedOuts) {
            tlat.push_back(o.latency);
            tcells += o.cells;
        }
        report.addTraced({
            {"cells_per_s_par", static_cast<double>(tcells) / tracedWallC},
            {"latency_p50_ms", quantile(tlat, 0.50) * 1e3},
            {"latency_p95_ms", quantile(tlat, 0.95) * 1e3},
        });
        detail("traced.sim.serve.accept_ms",
               quantile(tracer.durations("sim.serve.accept"), 0.5) * 1e3,
               "ms");
        detail("traced.sim.serve.submit_us",
               quantile(tracer.durations("sim.serve.submit"), 0.5) * 1e6,
               "us");

        // module layers: the serve-shaped grid, traced and gated against
        // an untraced batch run of the same grid
        sim::SweepSpec spec = serveLayerSpec(opts.seed, opts.tiny);
        spec.jobs = 1;
        const double s0 = now();
        const sim::SweepResult ref = sim::ExperimentRunner(1).run(spec);
        traceLayers(report, tracer, spec, ref, now() - s0,
                    cellsPerSPar / (c * cellsPerS), engineCache);
    }
}

} // namespace siqb
