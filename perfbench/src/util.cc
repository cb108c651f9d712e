#include "util.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>

#include "common/json.hh"
#include "sim/report.hh"

namespace siqb
{

int
parallelism()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 4u));
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setfill('0') << std::setw(16) << v;
    return os.str();
}

std::string
canonicalExport(siq::sim::SweepResult result)
{
    siq::sim::canonicalize(result);
    std::ostringstream os;
    siq::sim::writeJson(os, result);
    return os.str();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace
{

void
appendMetrics(std::ostringstream &os, const char *key,
              const std::vector<Metric> &ms)
{
    os << ",\"" << key << "\":{";
    for (std::size_t i = 0; i < ms.size(); i++) {
        os << (i ? "," : "") << siq::json::quote(ms[i].name)
           << ":{\"value\":";
        if (std::isfinite(ms[i].value))
            os << ms[i].value;
        else
            os << "null";
        os << ",\"unit\":" << siq::json::quote(ms[i].unit) << "}";
    }
    os << "}";
}

} // namespace

std::string
Report::toJson(const Options &opts) const
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"workload\":" << siq::json::quote(workload)
       << ",\"seed\":" << seed << ",\"trace\":" << (opts.trace ? 1 : 0)
       << ",\"tiny\":" << (opts.tiny ? "true" : "false")
       << ",\"seconds\":" << opts.seconds
       << ",\"correct\":" << (failed == 0 ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed;
    appendMetrics(os, "e2e", e2e);
    appendMetrics(os, "layers", layers);
    appendMetrics(os, "detail", detail);
    os << ",\"mismatches\":[";
    for (std::size_t i = 0; i < mismatches.size(); i++)
        os << (i ? "," : "") << siq::json::quote(mismatches[i]);
    os << "],\"digests\":{";
    for (std::size_t i = 0; i < digests.size(); i++) {
        os << (i ? "," : "") << siq::json::quote(digests[i].first) << ":"
           << siq::json::quote(digests[i].second);
    }
    os << "},\"fingerprint\":{\"nproc\":"
       << std::thread::hardware_concurrency()
       << ",\"N\":" << parallelism() << ",\"C\":" << parallelism()
       << ",\"compiler\":" << siq::json::quote(SIQB_COMPILER)
       << ",\"build_type\":" << siq::json::quote(SIQB_BUILD_TYPE)
       << ",\"lto\":" << (SIQB_LTO ? "true" : "false") << "}}";
    return os.str();
}

void
Report::checkDigest(const std::string &pinsPath, const std::string &key,
                    const std::string &digest, std::uint64_t weight)
{
    digests.push_back({key, digest});
    const std::string want = recordedDigest(pinsPath, workload, key);
    if (!want.empty() && want != digest)
        fail(weight, key + " digest " + digest + " != recorded " + want);
}

void
Report::addTraced(const std::vector<std::pair<std::string, double>> &traced)
{
    for (const auto &[name, value] : traced) {
        for (const Metric &m : e2e) {
            if (m.name != name)
                continue;
            detail.push_back({"traced." + name, value, m.unit});
            detail.push_back(
                {"trace_overhead." + name, value / m.value - 1.0,
                 "fraction"});
        }
    }
}

int
Tracer::begin(const char *name, int parent, std::int64_t request)
{
    if (!on)
        return -1;
    const double t = now();
    std::lock_guard lock(mu);
    spans.push_back({name, t, -1.0, parent, request});
    return static_cast<int>(spans.size() - 1);
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    const double t = now();
    std::lock_guard lock(mu);
    spans[static_cast<std::size_t>(id)].end = t;
}

std::vector<double>
Tracer::durations(std::string_view name) const
{
    std::vector<double> out;
    std::lock_guard lock(mu);
    for (const Span &s : spans) {
        if (s.end >= 0.0 && name == s.name)
            out.push_back(s.end - s.start);
    }
    return out;
}

double
Tracer::total(std::string_view name) const
{
    double sum = 0.0;
    for (const double d : durations(name))
        sum += d;
    return sum;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream os(path);
    std::lock_guard lock(mu);
    os.precision(15);
    for (std::size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        os << "{\"id\":" << i << ",\"name\":\"" << s.name
           << "\",\"start\":" << s.start << ",\"end\":" << s.end
           << ",\"parent\":" << s.parent << ",\"request\":" << s.request
           << "}\n";
    }
    return static_cast<bool>(os);
}

std::string
recordedDigest(const std::string &pinsPath, const std::string &workload,
               const std::string &key)
{
    if (pinsPath.empty())
        return "";
    std::ifstream is(pinsPath);
    if (!is)
        return "";
    std::stringstream ss;
    ss << is.rdbuf();
    const siq::json::Value root = siq::json::parse(ss.str());
    const siq::json::Value *w = root.find("digests");
    if (w != nullptr)
        w = w->find(workload);
    const siq::json::Value *d = w != nullptr ? w->find(key) : nullptr;
    return d != nullptr ? d->asString() : "";
}

const std::vector<std::string> &
builtinTechniques()
{
    static const std::vector<std::string> names = {
        "baseline", "noop", "extension", "improved", "abella", "folegnani"};
    return names;
}

} // namespace siqb
