#include "sim/report.hh"

#include <array>
#include <bit>
#include <concepts>
#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>
#include <type_traits>
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
       << ",\"family\":" << quote(r.technique)
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
    // "family" is the technique's table entry; older exports of
    // since-removed technique variants named their base technique
    const std::string &family = v.at("family").asString();
    if (findTechnique(family) == nullptr)
        fatal("report JSON: unknown technique family '", family, "'");
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
        os << r.benchmark << ',' << r.technique << ',' << r.technique;
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

// every config struct's fields are visited through its one list in
// sim/fields.hh: @p v(key, member, ifSet) per field, in key order,
// with ifSet a std::bool_constant (see SIQ_CORE_CONFIG_FIELDS)
#define SIQ_FIELD(f) v(#f, c.f, std::false_type{});
#define SIQ_FIELD_IF_SET(f) v(#f, c.f, std::true_type{});
#define SIQ_VISIT_FIELDS(Type, ...)                                      \
    template <class C, class V>                                          \
        requires std::same_as<std::remove_const_t<C>, Type>              \
    void visitFields(C &c, V &&v)                                        \
    {                                                                    \
        __VA_ARGS__                                                      \
    }

SIQ_VISIT_FIELDS(workloads::WorkloadParams,
                 SIQ_WORKLOAD_PARAMS_FIELDS(SIQ_FIELD))
SIQ_VISIT_FIELDS(IqConfig, SIQ_IQ_CONFIG_FIELDS(SIQ_FIELD))
SIQ_VISIT_FIELDS(LsqConfig, SIQ_LSQ_CONFIG_FIELDS(SIQ_FIELD))
SIQ_VISIT_FIELDS(RegFileConfig, SIQ_REGFILE_CONFIG_FIELDS(SIQ_FIELD))
SIQ_VISIT_FIELDS(BpredConfig, SIQ_BPRED_CONFIG_FIELDS(SIQ_FIELD))
SIQ_VISIT_FIELDS(CacheConfig, SIQ_CACHE_CONFIG_FIELDS(SIQ_FIELD))
SIQ_VISIT_FIELDS(MemHierarchyConfig, SIQ_MEM_CONFIG_FIELDS(SIQ_FIELD))
SIQ_VISIT_FIELDS(CoreConfig,
                 SIQ_CORE_CONFIG_FIELDS(SIQ_FIELD, SIQ_FIELD_IF_SET))
SIQ_VISIT_FIELDS(AbellaConfig, SIQ_ABELLA_CONFIG_FIELDS(SIQ_FIELD))
SIQ_VISIT_FIELDS(FolegnaniConfig, SIQ_FOLEGNANI_CONFIG_FIELDS(SIQ_FIELD))
SIQ_VISIT_FIELDS(RunConfig, SIQ_RUN_CONFIG_FIELDS(SIQ_FIELD))

#undef SIQ_VISIT_FIELDS
#undef SIQ_FIELD_IF_SET
#undef SIQ_FIELD

template <class C>
concept ConfigStruct = requires(C &c) {
    visitFields(c, [](const char *, auto &, auto) {});
};

/** Where a field sits in the spec ("base.core.robSize"), built only
 *  for error messages. */
struct FieldPath
{
    const FieldPath *parent;
    const char *key;

    std::string
    str() const
    {
        return parent ? parent->str() + "." + key : key;
    }
};

void writeValue(std::ostream &os, int v) { os << v; }
void writeValue(std::ostream &os, std::uint32_t v) { os << v; }
void writeValue(std::ostream &os, std::uint64_t v) { os << v; }
void writeValue(std::ostream &os, double v) { os << fmtDouble(v); }
void writeValue(std::ostream &os, bool v) { os << (v ? "true" : "false"); }
void writeValue(std::ostream &os, const std::string &v) { os << quote(v); }

template <std::size_t N>
void
writeValue(std::ostream &os, const std::array<int, N> &a)
{
    os << '[';
    for (std::size_t i = 0; i < N; i++)
        os << (i ? "," : "") << a[i];
    os << ']';
}

/** @p allFields also writes IF_SET fields left at their defaults. */
template <ConfigStruct C>
void
writeValue(std::ostream &os, const C &c, bool allFields = false)
{
    os << '{';
    const char *sep = "";
    visitFields(c, [&](const char *key, const auto &v, auto ifSet) {
        using T = std::remove_cvref_t<decltype(v)>;
        if constexpr (ifSet) {
            if (!allFields && v == T{})
                return;
        }
        os << sep << '"' << key << "\":";
        if constexpr (ConfigStruct<T>)
            writeValue(os, v, allFields);
        else
            writeValue(os, v);
        sep = ",";
    });
    os << '}';
}

// leaf readers: a type or range error is reported by readField with
// the field's path
void readValue(const JsonValue &j, int &v) { v = j.asInt(); }
void readValue(const JsonValue &j, bool &v) { v = j.asBool(); }
void readValue(const JsonValue &j, std::uint64_t &v) { v = j.asU64(); }
void readValue(const JsonValue &j, double &v) { v = j.asDouble(); }
void readValue(const JsonValue &j, std::string &v) { v = j.asString(); }

void
readValue(const JsonValue &j, std::uint32_t &v)
{
    const std::uint64_t u = j.asU64();
    if (u > std::numeric_limits<std::uint32_t>::max())
        fatal("must be <= ", std::numeric_limits<std::uint32_t>::max(),
              ", got ", u);
    v = static_cast<std::uint32_t>(u);
}

template <std::size_t N>
void
readValue(const JsonValue &j, std::array<int, N> &a)
{
    if (j.array.size() != N)
        fatal("must have ", N, " entries, got ", j.array.size());
    for (std::size_t i = 0; i < N; i++)
        a[i] = j.array[i].asInt();
}

template <ConfigStruct C>
void readValue(const JsonValue &j, C &c, const FieldPath &path);

/** Read one field; a leaf's error names the field's path. */
template <class T>
void
readField(const JsonValue &j, T &v, const FieldPath &path)
{
    if constexpr (ConfigStruct<T>) {
        readValue(j, v, path);
    } else {
        try {
            readValue(j, v);
        } catch (const FatalError &e) {
            fatal("spec JSON: ", path.str(), ": ", e.what());
        }
    }
}

template <ConfigStruct C>
void
readValue(const JsonValue &j, C &c, const FieldPath &path)
{
    visitFields(c, [&](const char *key, auto &v, auto ifSet) {
        const FieldPath sub{&path, key};
        const JsonValue *present = j.find(key);
        if (present != nullptr)
            readField(*present, v, sub);
        else if (!ifSet)
            fatal("spec JSON: missing field ", sub.str());
    });
}

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

/** fatal() naming the field base.@p path@p field unless @p ok. */
template <class... Args>
void
require(bool ok, std::string_view path, std::string_view field,
        Args &&...why)
{
    if (!ok)
        fatal("spec JSON: base.", path, field, ' ',
              std::forward<Args>(why)...);
}

template <class T>
void
requirePositive(T value, std::string_view path, std::string_view field)
{
    require(value >= 1, path, field, "must be >= 1, got ", value);
}

/** @p value must be a multiple of @p divisor (already checked >= 1). */
template <class T>
void
requireMultiple(T value, T divisor, std::string_view path,
                std::string_view field, const char *divisorName)
{
    require(value % divisor == 0, path, field, "must be a multiple of ",
            divisorName, " (", divisor, "), got ", value);
}

void
requireCache(const CacheConfig &c, std::string_view path)
{
    requirePositive(c.hitLatency, path, ".hitLatency");
    requirePositive(c.sizeBytes, path, ".sizeBytes");
    requirePositive(c.assoc, path, ".assoc");
    require(std::has_single_bit(c.lineBytes), path, ".lineBytes",
            "must be a power of two, got ", c.lineBytes);
    const std::uint64_t sets =
        c.sizeBytes / (std::uint64_t{c.assoc} * c.lineBytes);
    require(std::has_single_bit(sets), path, ".sizeBytes",
            "/ (assoc * lineBytes) must be a nonzero power of two, got ",
            sets, " sets");
}

void
requireRegFile(const RegFileConfig &r, std::string_view path)
{
    requirePositive(r.numArch, path, ".numArch");
    require(r.numPhys > r.numArch, path, ".numPhys",
            "must exceed numArch (", r.numArch, "), got ", r.numPhys);
    require(r.numPhys <= regHandleStride, path, ".numPhys",
            "must be <= ", regHandleStride, ", got ", r.numPhys);
    requirePositive(r.bankSize, path, ".bankSize");
    requireMultiple(r.numPhys, r.bankSize, path, ".numPhys", "bankSize");
}

} // namespace

void
validate(const RunConfig &cfg)
{
    requirePositive(cfg.workload.scale, "workload", ".scale");
    requirePositive(cfg.workload.repDivisor, "workload", ".repDivisor");
    const CoreConfig &c = cfg.core;
    requirePositive(c.fetchWidth, "core", ".fetchWidth");
    requirePositive(c.dispatchWidth, "core", ".dispatchWidth");
    requirePositive(c.issueWidth, "core", ".issueWidth");
    requirePositive(c.commitWidth, "core", ".commitWidth");
    requirePositive(c.fetchQueueSize, "core", ".fetchQueueSize");
    requirePositive(c.robSize, "core", ".robSize");
    require(c.decodeDepth >= 0, "core", ".decodeDepth",
            "must be >= 0, got ", c.decodeDepth);
    requirePositive(c.lsq.numEntries, "core.lsq", ".numEntries");
    requirePositive(c.iq.bankSize, "core.iq", ".bankSize");
    requirePositive(c.iq.numEntries, "core.iq", ".numEntries");
    requireMultiple(c.iq.numEntries, c.iq.bankSize, "core.iq",
                    ".numEntries", "bankSize");
    requireRegFile(c.intRegs, "core.intRegs");
    requireRegFile(c.fpRegs, "core.fpRegs");
    requireCache(c.mem.l1i, "core.mem.l1i");
    requireCache(c.mem.l1d, "core.mem.l1d");
    requireCache(c.mem.l2, "core.mem.l2");
    // a latency below one cycle schedules completions in the past
    requirePositive(c.mem.memLatency, "core.mem", ".memLatency");
    // the predictor tables and FU pools have no constructor check but
    // are divisors (table index modulo size) or deadlock when empty
    requirePositive(c.bpred.gshareEntries, "core.bpred", ".gshareEntries");
    requirePositive(c.bpred.bimodalEntries, "core.bpred", ".bimodalEntries");
    requirePositive(c.bpred.selectorEntries, "core.bpred",
                    ".selectorEntries");
    requirePositive(c.bpred.btbEntries, "core.bpred", ".btbEntries");
    requirePositive(c.bpred.btbAssoc, "core.bpred", ".btbAssoc");
    requireMultiple(c.bpred.btbEntries, c.bpred.btbAssoc, "core.bpred",
                    ".btbEntries", "btbAssoc");
    for (const int n : c.fuCounts)
        requirePositive(n, "core", ".fuCounts[]");
    // the compiler clamps hints to [minHint, iq.numEntries] and
    // unrolls loop bodies between unrollFactor and maxLoopCopies times
    require(cfg.minHint >= 1 && cfg.minHint <= c.iq.numEntries, "",
            "minHint", "must be in [1, core.iq.numEntries (",
            c.iq.numEntries, ")], got ", cfg.minHint);
    require(cfg.unrollFactor >= 1 &&
                cfg.unrollFactor <= compiler::maxLoopCopies,
            "", "unrollFactor", "must be in [1, ",
            compiler::maxLoopCopies, "], got ", cfg.unrollFactor);
    // abella divides its occupancy sum by the interval; a folegnani
    // floor of 0 lets the limit close the queue and stall commit
    requirePositive(cfg.abella.intervalCycles, "abella",
                    ".intervalCycles");
    requirePositive(cfg.folegnani.minSize, "folegnani", ".minSize");
}

namespace
{

void
writeSpec(std::ostream &os, const SweepSpec &spec, bool allFields)
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
    writeValue(os, spec.base, allFields);
    os << "}\n";
}

} // namespace

void
writeSpecJson(std::ostream &os, const SweepSpec &spec)
{
    writeSpec(os, spec, false);
}

json::Value
specTree(const SweepSpec &spec)
{
    std::ostringstream os;
    writeSpec(os, spec, true);
    return json::parse(os.str());
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
    if (spec.jobs < 0)
        fatal("spec JSON: jobs must be >= 0, got ", spec.jobs);
    spec.seeds = root.at("seeds").asInt();
    if (spec.seeds < 0)
        fatal("spec JSON: seeds must be >= 0, got ", spec.seeds);
    if (spec.seeds == 0)
        spec.seeds = 1; // legacy: 0 meant SIQSIM_SEEDS, which is gone
                        // and defaulted to 1
    readValue(root.at("base"), spec.base, FieldPath{nullptr, "base"});
    validate(spec.base);
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
