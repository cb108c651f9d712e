#include "sim/report.hh"

#include <cstdio>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "sim/technique.hh"
#include "workloads/family.hh"

namespace siq::sim
{

namespace
{

// the JSON tree/parser and the whole-token numeric validators live in
// common/json (shared with the serve daemon's request parsing)
using JsonValue = json::Value;
using json::quote;

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ----------------------------------------------------- field helpers

void
appendCellJson(std::ostream &os, const RunResult &r)
{
    os << "{\"benchmark\":" << quote(r.benchmark)
       << ",\"technique\":" << quote(r.technique)
       << ",\"family\":" << quote(techniqueName(r.tech))
       << ",\"generateSeconds\":" << fmtDouble(r.generateSeconds);
    // wall-clock metadata added after the v5 schema: emitted only
    // when nonzero so canonicalize()d output (which zeroes it) keeps
    // its historical bytes — the determinism pin digests those
    if (r.compileSeconds != 0.0)
        os << ",\"compileSeconds\":" << fmtDouble(r.compileSeconds);
    os << ",\"stats\":{";
    const char *sep = "";
#define X(f)                                                             \
    os << sep << "\"" #f "\":" << r.stats.f;                             \
    sep = ",";
    SIQ_CORE_STATS_FIELDS(X)
#undef X
    // speculative-front-end counters: nonzero-only, so oracle-mode
    // exports keep their historical bytes (and the determinism-pin
    // digest) — the same schema-evolution pattern as compileSeconds
#define X(f)                                                             \
    if (r.stats.f != 0)                                                  \
        os << ",\"" #f "\":" << r.stats.f;
    SIQ_CORE_SPEC_STATS_FIELDS(X)
#undef X
    os << "},\"iq\":{";
    sep = "";
#define X(f)                                                             \
    os << sep << "\"" #f "\":" << r.iq.f;                                \
    sep = ",";
    SIQ_IQ_EVENT_FIELDS(X)
#undef X
    os << "},\"compile\":{";
    sep = "";
#define X(f)                                                             \
    os << sep << "\"" #f "\":" << r.compile.f;                           \
    sep = ",";
    SIQ_COMPILE_STATS_FIELDS(X)
#undef X
    os << sep << "\"seconds\":" << fmtDouble(r.compile.seconds)
       << "}}";
}

RunResult
cellFromJson(const JsonValue &v)
{
    RunResult r;
    r.benchmark = v.at("benchmark").asString();
    r.technique = v.at("technique").asString();
    const std::string &family = v.at("family").asString();
    const auto tech = techniqueFromName(family);
    if (!tech)
        fatal("report JSON: unknown technique family '", family, "'");
    r.tech = *tech;
    r.generateSeconds = v.at("generateSeconds").asDouble();
    // optional (nonzero-only) key — absent in pre-v6 and canonical
    // output, same schema-evolution pattern as the "seeds" key. Keys
    // this reader does not know (older exports' per-cell trace
    // timing) are ignored.
    if (const JsonValue *cs = v.find("compileSeconds"))
        r.compileSeconds = cs->asDouble();
    const JsonValue &stats = v.at("stats");
    const JsonValue &iq = v.at("iq");
    const JsonValue &compile = v.at("compile");
#define X(f) r.stats.f = stats.at(#f).asU64();
    SIQ_CORE_STATS_FIELDS(X)
#undef X
    // optional: absent whenever zero (always, in oracle mode)
#define X(f)                                                             \
    if (const JsonValue *sv = stats.find(#f))                            \
        r.stats.f = sv->asU64();
    SIQ_CORE_SPEC_STATS_FIELDS(X)
#undef X
#define X(f) r.iq.f = iq.at(#f).asU64();
    SIQ_IQ_EVENT_FIELDS(X)
#undef X
#define X(f)                                                             \
    r.compile.f =                                                        \
        static_cast<std::size_t>(compile.at(#f).asU64());
    SIQ_COMPILE_STATS_FIELDS(X)
#undef X
    r.compile.seconds = compile.at("seconds").asDouble();
    // pre-v6 exports carry annotation time only inside the compile
    // block; mirror it so the CSV export of a read-back result keeps it
    if (r.compileSeconds == 0.0)
        r.compileSeconds = r.compile.seconds;
    return r;
}

void
appendMetricJson(std::ostream &os, const char *name,
                 const MetricAggregate &m)
{
    os << "\"" << name << "\":{\"mean\":" << fmtDouble(m.mean)
       << ",\"stddev\":" << fmtDouble(m.stddev)
       << ",\"ci95\":" << fmtDouble(m.ci95) << "}";
}

void
appendAggJson(std::ostream &os, const CellAggregate &agg)
{
    os << "{\"n\":" << agg.n << ",";
    appendMetricJson(os, "ipc", agg.ipc);
    os << ",\"stats\":{";
    const char *sep = "";
#define X(f)                                                             \
    os << sep;                                                           \
    appendMetricJson(os, #f, agg.stats_##f);                             \
    sep = ",";
    SIQ_CORE_STATS_FIELDS(X)
#undef X
    // spec counters are non-negative, so an all-zero replica set has
    // mean 0: gate on it to keep oracle aggregate bytes unchanged
#define X(f)                                                             \
    if (agg.stats_##f.mean != 0.0) {                                     \
        os << sep;                                                       \
        appendMetricJson(os, #f, agg.stats_##f);                         \
        sep = ",";                                                       \
    }
    SIQ_CORE_SPEC_STATS_FIELDS(X)
#undef X
    os << "},\"iq\":{";
    sep = "";
#define X(f)                                                             \
    os << sep;                                                           \
    appendMetricJson(os, #f, agg.iq_##f);                                \
    sep = ",";
    SIQ_IQ_EVENT_FIELDS(X)
#undef X
    os << "}}";
}

MetricAggregate
metricFromJson(const JsonValue &v)
{
    MetricAggregate m;
    m.mean = v.at("mean").asDouble();
    m.stddev = v.at("stddev").asDouble();
    m.ci95 = v.at("ci95").asDouble();
    return m;
}

CellAggregate
aggFromJson(const JsonValue &v)
{
    CellAggregate agg;
    agg.n = v.at("n").asU64();
    agg.ipc = metricFromJson(v.at("ipc"));
    const JsonValue &stats = v.at("stats");
    const JsonValue &iq = v.at("iq");
#define X(f) agg.stats_##f = metricFromJson(stats.at(#f));
    SIQ_CORE_STATS_FIELDS(X)
#undef X
#define X(f)                                                             \
    if (const JsonValue *sv = stats.find(#f))                            \
        agg.stats_##f = metricFromJson(*sv);
    SIQ_CORE_SPEC_STATS_FIELDS(X)
#undef X
#define X(f) agg.iq_##f = metricFromJson(iq.at(#f));
    SIQ_IQ_EVENT_FIELDS(X)
#undef X
    return agg;
}

} // namespace

// --------------------------------------------------------------- API

std::string
toJson(const RunResult &result)
{
    std::ostringstream os;
    appendCellJson(os, result);
    return os.str();
}

std::string
toJson(const PowerComparison &cmp)
{
    std::ostringstream os;
    os << "{\"iqDynamicSaving\":" << fmtDouble(cmp.iqDynamicSaving)
       << ",\"iqStaticSaving\":" << fmtDouble(cmp.iqStaticSaving)
       << ",\"rfDynamicSaving\":" << fmtDouble(cmp.rfDynamicSaving)
       << ",\"rfStaticSaving\":" << fmtDouble(cmp.rfStaticSaving)
       << ",\"nonEmptySaving\":" << fmtDouble(cmp.nonEmptySaving)
       << "}";
    return os.str();
}

void
writeJson(std::ostream &os, const SweepResult &result)
{
    os << "{\"benchmarks\":[";
    for (std::size_t i = 0; i < result.benchmarks.size(); i++)
        os << (i ? "," : "") << quote(result.benchmarks[i]);
    os << "],\"techniques\":[";
    for (std::size_t i = 0; i < result.techniques.size(); i++)
        os << (i ? "," : "") << quote(result.techniques[i]);
    os << "],\"jobs\":" << result.jobsUsed
       << ",\"wallSeconds\":" << fmtDouble(result.wallSeconds)
       << ",\"cache\":{\"workloadBuilds\":"
       << result.cache.workloadBuilds
       << ",\"workloadHits\":" << result.cache.workloadHits
       << ",\"compileBuilds\":" << result.cache.compileBuilds
       << ",\"compileHits\":" << result.cache.compileHits << "}";
    // replication block only when aggregates exist, so seeds == 1
    // output (and the empty matrix) keeps the unreplicated schema and
    // always reads back
    if (!result.aggregates.empty())
        os << ",\"seeds\":" << result.seeds;
    os << ",\"cells\":[";
    for (std::size_t i = 0; i < result.cells.size(); i++) {
        if (i)
            os << ",";
        os << "\n";
        appendCellJson(os, result.cells[i]);
    }
    os << "\n]";
    if (!result.aggregates.empty()) {
        os << ",\"aggregates\":[";
        for (std::size_t i = 0; i < result.aggregates.size(); i++) {
            if (i)
                os << ",";
            os << "\n";
            appendAggJson(os, result.aggregates[i]);
        }
        os << "\n]";
    }
    os << "}\n";
}

SweepResult
readJson(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();
    const JsonValue root = json::parse(text);

    SweepResult result;
    for (const auto &b : root.at("benchmarks").array)
        result.benchmarks.push_back(b.asString());
    for (const auto &t : root.at("techniques").array)
        result.techniques.push_back(t.asString());
    result.jobsUsed = static_cast<int>(root.at("jobs").asU64());
    result.wallSeconds = root.at("wallSeconds").asDouble();
    const JsonValue &cache = root.at("cache");
    result.cache.workloadBuilds = cache.at("workloadBuilds").asU64();
    result.cache.workloadHits = cache.at("workloadHits").asU64();
    result.cache.compileBuilds = cache.at("compileBuilds").asU64();
    result.cache.compileHits = cache.at("compileHits").asU64();
    for (const auto &cell : root.at("cells").array)
        result.cells.push_back(cellFromJson(cell));
    if (const JsonValue *seeds = root.find("seeds")) {
        result.seeds = static_cast<int>(seeds->asU64());
        for (const auto &agg : root.at("aggregates").array)
            result.aggregates.push_back(aggFromJson(agg));
        if (result.seeds < 2 ||
            result.aggregates.size() != result.cells.size())
            fatal("report JSON: aggregates do not match the matrix");
    }

    // SweepResult::at() assumes a complete technique-major matrix;
    // reject filtered, reordered or hand-edited cell arrays
    const std::size_t nb = result.benchmarks.size();
    if (result.cells.size() != nb * result.techniques.size())
        fatal("report JSON: cell count does not match the matrix");
    for (std::size_t i = 0; i < result.cells.size(); i++) {
        const RunResult &r = result.cells[i];
        if (r.benchmark != result.benchmarks[i % nb] ||
            r.technique != result.techniques[i / nb])
            fatal("report JSON: cells are not in technique-major "
                  "matrix order (cell ", i, ")");
    }
    return result;
}

void
writeCsv(std::ostream &os, const SweepResult &result)
{
    const bool agg = !result.aggregates.empty();
    // speculative-front-end columns appear only when some cell ran
    // with the real front end, so oracle-mode CSVs keep their
    // historical bytes (same reasoning as the aggregate columns)
    bool spec = false;
    for (const RunResult &r : result.cells) {
#define X(f) spec = spec || r.stats.f != 0;
        SIQ_CORE_SPEC_STATS_FIELDS(X)
#undef X
    }
    os << "benchmark,technique,family";
#define X(f) os << "," #f;
    SIQ_RUN_TIMING_FIELDS(X)
#undef X
#define X(f) os << ",stats_" #f;
    SIQ_CORE_STATS_FIELDS(X)
    if (spec) {
        SIQ_CORE_SPEC_STATS_FIELDS(X)
    }
#undef X
#define X(f) os << ",iq_" #f;
    SIQ_IQ_EVENT_FIELDS(X)
#undef X
#define X(f) os << ",compile_" #f;
    SIQ_COMPILE_STATS_FIELDS(X)
#undef X
    // aggregate columns only when replicated, so seeds == 1 output is
    // byte-identical to the unreplicated schema
    if (agg) {
        os << ",n,ipc_mean,ipc_stddev,ipc_ci95";
#define X(f)                                                             \
    os << ",stats_" #f "_mean,stats_" #f "_stddev,stats_" #f "_ci95";
        SIQ_CORE_STATS_FIELDS(X)
        if (spec) {
            SIQ_CORE_SPEC_STATS_FIELDS(X)
        }
#undef X
#define X(f) os << ",iq_" #f "_mean,iq_" #f "_stddev,iq_" #f "_ci95";
        SIQ_IQ_EVENT_FIELDS(X)
#undef X
    }
    os << "\n";
    for (std::size_t i = 0; i < result.cells.size(); i++) {
        const RunResult &r = result.cells[i];
        os << r.benchmark << ',' << r.technique << ','
           << techniqueName(r.tech);
#define X(f) os << ',' << fmtDouble(r.f);
        SIQ_RUN_TIMING_FIELDS(X)
#undef X
#define X(f) os << ',' << r.stats.f;
        SIQ_CORE_STATS_FIELDS(X)
        if (spec) {
            SIQ_CORE_SPEC_STATS_FIELDS(X)
        }
#undef X
#define X(f) os << ',' << r.iq.f;
        SIQ_IQ_EVENT_FIELDS(X)
#undef X
#define X(f) os << ',' << r.compile.f;
        SIQ_COMPILE_STATS_FIELDS(X)
#undef X
        if (agg) {
            const CellAggregate &a = result.aggregates[i];
            auto metric = [&os](const MetricAggregate &m) {
                os << ',' << fmtDouble(m.mean) << ','
                   << fmtDouble(m.stddev) << ',' << fmtDouble(m.ci95);
            };
            os << ',' << a.n;
            metric(a.ipc);
#define X(f) metric(a.stats_##f);
            SIQ_CORE_STATS_FIELDS(X)
            if (spec) {
                SIQ_CORE_SPEC_STATS_FIELDS(X)
            }
#undef X
#define X(f) metric(a.iq_##f);
            SIQ_IQ_EVENT_FIELDS(X)
#undef X
        }
        os << "\n";
    }
}

namespace
{

// -------------------------------------------------- spec (de)serial

void
appendCacheConfigJson(std::ostream &os, const CacheConfig &c)
{
    os << "{\"name\":" << quote(c.name) << ",\"sizeBytes\":"
       << c.sizeBytes << ",\"assoc\":" << c.assoc << ",\"lineBytes\":"
       << c.lineBytes << ",\"hitLatency\":" << c.hitLatency << "}";
}

CacheConfig
cacheConfigFromJson(const JsonValue &v)
{
    CacheConfig c;
    c.name = v.at("name").asString();
    c.sizeBytes = static_cast<std::uint32_t>(v.at("sizeBytes").asU64());
    c.assoc = static_cast<std::uint32_t>(v.at("assoc").asU64());
    c.lineBytes = static_cast<std::uint32_t>(v.at("lineBytes").asU64());
    c.hitLatency = v.at("hitLatency").asInt();
    return c;
}

void
appendRegFileConfigJson(std::ostream &os, const RegFileConfig &c)
{
    os << "{\"numPhys\":" << c.numPhys << ",\"numArch\":" << c.numArch
       << ",\"bankSize\":" << c.bankSize << "}";
}

RegFileConfig
regFileConfigFromJson(const JsonValue &v)
{
    RegFileConfig c;
    c.numPhys = v.at("numPhys").asInt();
    c.numArch = v.at("numArch").asInt();
    c.bankSize = v.at("bankSize").asInt();
    return c;
}

void
appendCoreConfigJson(std::ostream &os, const CoreConfig &c)
{
    os << "{\"fetchWidth\":" << c.fetchWidth
       << ",\"dispatchWidth\":" << c.dispatchWidth
       << ",\"issueWidth\":" << c.issueWidth
       << ",\"commitWidth\":" << c.commitWidth
       << ",\"decodeDepth\":" << c.decodeDepth
       << ",\"fetchQueueSize\":" << c.fetchQueueSize
       << ",\"robSize\":" << c.robSize
       << ",\"iq\":{\"numEntries\":" << c.iq.numEntries
       << ",\"bankSize\":" << c.iq.bankSize << "}"
       << ",\"lsq\":{\"numEntries\":" << c.lsq.numEntries << "}"
       << ",\"intRegs\":";
    appendRegFileConfigJson(os, c.intRegs);
    os << ",\"fpRegs\":";
    appendRegFileConfigJson(os, c.fpRegs);
    os << ",\"fuCounts\":[";
    for (std::size_t i = 0; i < c.fuCounts.size(); i++)
        os << (i ? "," : "") << c.fuCounts[i];
    os << "],\"bpred\":{\"gshareEntries\":" << c.bpred.gshareEntries
       << ",\"bimodalEntries\":" << c.bpred.bimodalEntries
       << ",\"selectorEntries\":" << c.bpred.selectorEntries
       << ",\"btbEntries\":" << c.bpred.btbEntries
       << ",\"btbAssoc\":" << c.bpred.btbAssoc
       << ",\"rasEntries\":" << c.bpred.rasEntries << "}";
    // present only when enabled, so oracle-mode exports (and the
    // determinism-pin digest over them) keep their historical bytes
    if (c.specFrontEnd)
        os << ",\"specFrontEnd\":true";
    os << ",\"mem\":{\"l1i\":";
    appendCacheConfigJson(os, c.mem.l1i);
    os << ",\"l1d\":";
    appendCacheConfigJson(os, c.mem.l1d);
    os << ",\"l2\":";
    appendCacheConfigJson(os, c.mem.l2);
    os << ",\"memLatency\":" << c.mem.memLatency << "}}";
}

CoreConfig
coreConfigFromJson(const JsonValue &v)
{
    CoreConfig c;
    c.fetchWidth = v.at("fetchWidth").asInt();
    c.dispatchWidth = v.at("dispatchWidth").asInt();
    c.issueWidth = v.at("issueWidth").asInt();
    c.commitWidth = v.at("commitWidth").asInt();
    c.decodeDepth = v.at("decodeDepth").asInt();
    c.fetchQueueSize = v.at("fetchQueueSize").asInt();
    c.robSize = v.at("robSize").asInt();
    c.iq.numEntries = v.at("iq").at("numEntries").asInt();
    c.iq.bankSize = v.at("iq").at("bankSize").asInt();
    c.lsq.numEntries = v.at("lsq").at("numEntries").asInt();
    c.intRegs = regFileConfigFromJson(v.at("intRegs"));
    c.fpRegs = regFileConfigFromJson(v.at("fpRegs"));
    const JsonValue &fu = v.at("fuCounts");
    if (fu.array.size() != c.fuCounts.size())
        fatal("spec JSON: fuCounts must have ", c.fuCounts.size(),
              " entries, got ", fu.array.size());
    for (std::size_t i = 0; i < c.fuCounts.size(); i++)
        c.fuCounts[i] = fu.array[i].asInt();
    const JsonValue &bp = v.at("bpred");
    c.bpred.gshareEntries =
        static_cast<std::uint32_t>(bp.at("gshareEntries").asU64());
    c.bpred.bimodalEntries =
        static_cast<std::uint32_t>(bp.at("bimodalEntries").asU64());
    c.bpred.selectorEntries =
        static_cast<std::uint32_t>(bp.at("selectorEntries").asU64());
    c.bpred.btbEntries =
        static_cast<std::uint32_t>(bp.at("btbEntries").asU64());
    c.bpred.btbAssoc =
        static_cast<std::uint32_t>(bp.at("btbAssoc").asU64());
    c.bpred.rasEntries =
        static_cast<std::uint32_t>(bp.at("rasEntries").asU64());
    if (const JsonValue *sfe = v.find("specFrontEnd"))
        c.specFrontEnd = sfe->asBool();
    const JsonValue &mem = v.at("mem");
    c.mem.l1i = cacheConfigFromJson(mem.at("l1i"));
    c.mem.l1d = cacheConfigFromJson(mem.at("l1d"));
    c.mem.l2 = cacheConfigFromJson(mem.at("l2"));
    c.mem.memLatency = mem.at("memLatency").asInt();
    return c;
}

void
appendRunConfigJson(std::ostream &os, const RunConfig &cfg)
{
    os << "{\"workload\":{\"scale\":" << cfg.workload.scale
       << ",\"repDivisor\":" << cfg.workload.repDivisor
       << ",\"seed\":" << cfg.workload.seed << "}"
       << ",\"warmupInsts\":" << cfg.warmupInsts
       << ",\"measureInsts\":" << cfg.measureInsts
       << ",\"minHint\":" << cfg.minHint
       << ",\"elideRedundant\":"
       << (cfg.elideRedundant ? "true" : "false")
       << ",\"unrollFactor\":" << cfg.unrollFactor << ",\"core\":";
    appendCoreConfigJson(os, cfg.core);
    os << ",\"abella\":{\"iqSize\":" << cfg.abella.iqSize
       << ",\"robSize\":" << cfg.abella.robSize
       << ",\"portion\":" << cfg.abella.portion
       << ",\"minIq\":" << cfg.abella.minIq
       << ",\"robFloor\":" << cfg.abella.robFloor
       << ",\"intervalCycles\":" << cfg.abella.intervalCycles
       << ",\"slackPortions\":" << cfg.abella.slackPortions
       << ",\"stallFractionToGrow\":"
       << fmtDouble(cfg.abella.stallFractionToGrow) << "}"
       << ",\"folegnani\":{\"iqSize\":" << cfg.folegnani.iqSize
       << ",\"portion\":" << cfg.folegnani.portion
       << ",\"minSize\":" << cfg.folegnani.minSize
       << ",\"intervalCycles\":" << cfg.folegnani.intervalCycles
       << ",\"contributionThreshold\":"
       << cfg.folegnani.contributionThreshold
       << ",\"expandPeriod\":" << cfg.folegnani.expandPeriod << "}}";
}

RunConfig
runConfigFromJson(const JsonValue &v)
{
    RunConfig cfg;
    const JsonValue &w = v.at("workload");
    cfg.workload.scale = w.at("scale").asInt();
    cfg.workload.repDivisor = w.at("repDivisor").asInt();
    cfg.workload.seed = w.at("seed").asU64();
    cfg.warmupInsts = v.at("warmupInsts").asU64();
    cfg.measureInsts = v.at("measureInsts").asU64();
    cfg.minHint = v.at("minHint").asInt();
    cfg.elideRedundant = v.at("elideRedundant").asBool();
    cfg.unrollFactor = v.at("unrollFactor").asInt();
    cfg.core = coreConfigFromJson(v.at("core"));
    const JsonValue &ab = v.at("abella");
    cfg.abella.iqSize = ab.at("iqSize").asInt();
    cfg.abella.robSize = ab.at("robSize").asInt();
    cfg.abella.portion = ab.at("portion").asInt();
    cfg.abella.minIq = ab.at("minIq").asInt();
    cfg.abella.robFloor = ab.at("robFloor").asInt();
    cfg.abella.intervalCycles = ab.at("intervalCycles").asU64();
    cfg.abella.slackPortions = ab.at("slackPortions").asInt();
    cfg.abella.stallFractionToGrow =
        ab.at("stallFractionToGrow").asDouble();
    const JsonValue &fo = v.at("folegnani");
    cfg.folegnani.iqSize = fo.at("iqSize").asInt();
    cfg.folegnani.portion = fo.at("portion").asInt();
    cfg.folegnani.minSize = fo.at("minSize").asInt();
    cfg.folegnani.intervalCycles = fo.at("intervalCycles").asU64();
    cfg.folegnani.contributionThreshold =
        fo.at("contributionThreshold").asU64();
    cfg.folegnani.expandPeriod = fo.at("expandPeriod").asInt();
    return cfg;
}

} // namespace

namespace
{

/** One benchmark-axis entry: the structured WorkloadSpec form.
 *  "params" is present only when overrides exist, so parameterless
 *  families stay minimal. Validates (and canonicalizes) through the
 *  family registry. */
void
appendWorkloadSpecJson(std::ostream &os, const std::string &text)
{
    const auto spec = workloads::WorkloadSpec::parse(text);
    os << "{\"family\":" << quote(spec.family);
    if (!spec.params.empty()) {
        os << ",\"params\":{";
        const char *sep = "";
        for (const auto &[name, value] : spec.params) {
            os << sep << quote(name) << ":" << value;
            sep = ",";
        }
        os << "}";
    }
    os << "}";
}

/** Accepts both the structured object form and (for hand-written
 *  specs) a plain string; returns the canonical spec string. */
std::string
workloadSpecFromJson(const JsonValue &v)
{
    if (v.kind == JsonValue::Kind::String)
        return workloads::canonicalWorkload(v.asString());
    std::string text = v.at("family").asString();
    if (const JsonValue *params = v.find("params")) {
        for (const auto &[name, value] : params->object) {
            if (value.kind != JsonValue::Kind::Number)
                fatal("spec JSON: workload parameter '", name,
                      "' must be an integer");
            text += ':' + name + '=' + value.token;
        }
    }
    return workloads::canonicalWorkload(text);
}

} // namespace

void
writeSpecJson(std::ostream &os, const SweepSpec &spec)
{
    os << "{\"benchmarks\":[";
    for (std::size_t i = 0; i < spec.benchmarks.size(); i++) {
        os << (i ? "," : "");
        appendWorkloadSpecJson(os, spec.benchmarks[i]);
    }
    os << "],\"techniques\":[";
    for (std::size_t i = 0; i < spec.techniques.size(); i++)
        os << (i ? "," : "") << quote(spec.techniques[i]);
    os << "],\"jobs\":" << spec.jobs << ",\"seeds\":" << spec.seeds
       << ",\n\"base\":";
    appendRunConfigJson(os, spec.base);
    os << "}\n";
}

std::string
toJson(const SweepSpec &spec)
{
    std::ostringstream os;
    writeSpecJson(os, spec);
    return os.str();
}

SweepSpec
specFromJson(const json::Value &root)
{
    SweepSpec spec;
    for (const auto &b : root.at("benchmarks").array)
        spec.benchmarks.push_back(workloadSpecFromJson(b));
    for (const auto &t : root.at("techniques").array)
        spec.techniques.push_back(t.asString());
    spec.jobs = root.at("jobs").asInt();
    spec.seeds = root.at("seeds").asInt();
    if (spec.seeds < 0)
        fatal("spec JSON: seeds must be >= 0, got ", spec.seeds);
    spec.base = runConfigFromJson(root.at("base"));
    for (const auto &t : spec.techniques) {
        if (findTechnique(t) == nullptr)
            fatal("spec JSON: unknown technique '", t, "'");
    }
    return spec;
}

SweepSpec
readSpecJson(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    return specFromJson(json::parse(buf.str()));
}

Result<SweepSpec>
trySpecFromJson(const json::Value &root)
{
    return asResult([&] { return specFromJson(root); });
}

Result<SweepSpec>
tryReadSpecJson(const std::string &text)
{
    return asResult(
        [&] { return specFromJson(json::parse(text)); });
}

std::string
toJson(const CellCheckpoint &ckpt)
{
    std::ostringstream os;
    os << "{\"index\":" << ckpt.index << ",\"seeds\":" << ckpt.seeds
       << ",\"cell\":";
    appendCellJson(os, ckpt.cell);
    if (ckpt.seeds > 1) {
        os << ",\"aggregate\":";
        appendAggJson(os, ckpt.aggregate);
    }
    os << "}\n";
    return os.str();
}

CellCheckpoint
cellCheckpointFromJson(const std::string &text)
{
    const JsonValue root = json::parse(text);
    CellCheckpoint ckpt;
    ckpt.index = static_cast<std::size_t>(root.at("index").asU64());
    ckpt.seeds = root.at("seeds").asInt();
    if (ckpt.seeds < 1)
        fatal("checkpoint JSON: seeds must be >= 1, got ", ckpt.seeds);
    ckpt.cell = cellFromJson(root.at("cell"));
    if (ckpt.seeds > 1)
        ckpt.aggregate = aggFromJson(root.at("aggregate"));
    return ckpt;
}

std::string
toJson(const SweepCacheStats &cache)
{
    std::ostringstream os;
    os << "{\"workloadBuilds\":" << cache.workloadBuilds
       << ",\"workloadHits\":" << cache.workloadHits
       << ",\"compileBuilds\":" << cache.compileBuilds
       << ",\"compileHits\":" << cache.compileHits << "}";
    return os.str();
}

SweepCacheStats
cacheStatsFromJson(const std::string &text)
{
    const JsonValue root = json::parse(text);
    SweepCacheStats s;
    s.workloadBuilds = root.at("workloadBuilds").asU64();
    s.workloadHits = root.at("workloadHits").asU64();
    s.compileBuilds = root.at("compileBuilds").asU64();
    s.compileHits = root.at("compileHits").asU64();
    return s;
}

void
canonicalize(RunResult &cell)
{
#define X(f) cell.f = 0.0;
    SIQ_RUN_TIMING_FIELDS(X)
#undef X
    cell.compile.seconds = 0.0;
}

void
canonicalize(SweepResult &result)
{
    result.jobsUsed = 0;
    result.wallSeconds = 0.0;
    result.cache = SweepCacheStats{};
    for (auto &cell : result.cells)
        canonicalize(cell);
}

void
writePowerCsv(std::ostream &os, const SweepResult &result,
              const std::string &baselineTechnique,
              const power::IqPowerParams &iqParams,
              const power::RfPowerParams &rfParams)
{
    std::size_t baseIdx = result.techniques.size();
    for (std::size_t t = 0; t < result.techniques.size(); t++) {
        if (result.techniques[t] == baselineTechnique)
            baseIdx = t;
    }
    if (baseIdx == result.techniques.size())
        fatal("power CSV: baseline technique '", baselineTechnique,
              "' not in the sweep");

    os << "benchmark,technique,iqDynamicSaving,iqStaticSaving,"
          "rfDynamicSaving,rfStaticSaving,nonEmptySaving\n";
    for (std::size_t t = 0; t < result.techniques.size(); t++) {
        if (t == baseIdx)
            continue;
        for (std::size_t b = 0; b < result.benchmarks.size(); b++) {
            const auto cmp =
                comparePower(result.at(baseIdx, b), result.at(t, b),
                             iqParams, rfParams);
            os << result.benchmarks[b] << ','
               << result.techniques[t] << ','
               << fmtDouble(cmp.iqDynamicSaving) << ','
               << fmtDouble(cmp.iqStaticSaving) << ','
               << fmtDouble(cmp.rfDynamicSaving) << ','
               << fmtDouble(cmp.rfStaticSaving) << ','
               << fmtDouble(cmp.nonEmptySaving) << "\n";
        }
    }
}

} // namespace siq::sim
