/**
 * @file
 * Shared pieces of the siqsim benchmark binary: command-line options,
 * the metric report every workload fills in, the in-memory span
 * recorder of the traced run, and small statistics/hashing helpers.
 *
 * Everything here sits outside the simulator: spans are recorded by
 * the benchmark's own code around calls into the `siq` library's
 * public API, so the library itself is measured unmodified.
 */

#ifndef SIQB_UTIL_HH
#define SIQB_UTIL_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/sweep.hh"

namespace siqb
{

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny budgets and short phases: the self-test configuration. */
    bool tiny = false;
    /** Recorded digests to check against ("" = none recorded). */
    std::string pinsPath;
    /** Where the traced run writes its spans ("" = keep in memory). */
    std::string spansPath;
    /** Number of serve specs to print instead of running (self-test). */
    int emitSpecs = 0;
};

/** Worker threads of the parallel pass / concurrent serve clients. */
int parallelism();

/** Seconds on the steady clock since an arbitrary epoch. */
double now();

/** FNV-1a 64-bit, the hash tests/test_determinism_pin.cc pins. */
std::uint64_t fnv1a64(std::string_view bytes);

/** "0x" + 16 hex digits. */
std::string hex(std::uint64_t v);

/** The canonical export: canonicalize() then writeJson(). */
std::string canonicalExport(siq::sim::SweepResult result);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Linear-interpolated quantile, q in [0, 1] (0 when empty). */
double quantile(std::vector<double> v, double q);

/** Peak resident set of this process, in MiB (ru_maxrss). */
double peakRssMib();

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What one run measured. `e2e` and `layers` carry the metrics
 * BENCHMARK.json lists (the same names on every workload); `detail`
 * carries workload-specific extras (serve dedupe counters, sample
 * counts, traced-vs-untraced values) that are printed and saved but
 * not part of run.py's result line.
 */
struct Report
{
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> e2e;
    std::vector<Metric> layers;
    std::vector<Metric> detail;
    /** Correctness-gate findings, one line each (empty = passed). */
    std::vector<std::string> mismatches;
    /** Digests this run computed, by name. */
    std::vector<std::pair<std::string, std::string>> digests;

    void
    fail(std::uint64_t n, const std::string &why)
    {
        failed += n;
        mismatches.push_back(why);
    }

    /** Record digest @p key; when @p pinsPath records one for this
     *  workload and it differs, count @p weight failures. */
    void checkDigest(const std::string &pinsPath, const std::string &key,
                     const std::string &digest, std::uint64_t weight);

    /** Add traced.<name> and trace_overhead.<name> (traced ÷ untraced
     *  − 1) to the detail for each traced end-to-end value. */
    void addTraced(
        const std::vector<std::pair<std::string, double>> &traced);

    /** The whole report as one JSON object (one line). */
    std::string toJson(const Options &opts) const;
};

/**
 * In-memory span recorder (choosing-metrics §4): name, start, end,
 * parent span and request id, appended under a mutex and written out
 * once when the run ends. A disabled tracer records nothing and
 * begin() returns -1, so untraced runs pay one branch per span.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled) {}

    /** Open a span; @return its id (-1 when disabled). */
    int begin(const char *name, int parent = -1, std::int64_t request = -1);

    /** Close span @p id (no-op for -1). */
    void end(int id);

    /** Summed duration of every closed span called @p name, seconds. */
    double total(std::string_view name) const;

    /** Durations of every closed span called @p name, seconds. */
    std::vector<double> durations(std::string_view name) const;

    /** Write every span as one JSON line to @p path. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        double start;
        double end;
        int parent;
        std::int64_t request;
    };

    bool on;
    mutable std::mutex mu;
    std::vector<Span> spans; ///< guarded by mu
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, const char *name, int parent = -1,
               std::int64_t request = -1)
        : tracer(t), id(t.begin(name, parent, request))
    {
    }
    ~ScopedSpan() { tracer.end(id); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int spanId() const { return id; }

  private:
    Tracer &tracer;
    int id;
};

/** Look up a recorded digest: "" when the pins file has none. */
std::string recordedDigest(const std::string &pinsPath,
                           const std::string &workload,
                           const std::string &key);

/** The six built-in techniques, in registry order. */
const std::vector<std::string> &builtinTechniques();

} // namespace siqb

#endif // SIQB_UTIL_HH
