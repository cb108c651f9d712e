/**
 * @file
 * Golden-fingerprint pin for the simulated behavior of the whole
 * stack: the canonical sweep JSON for a small but full-coverage grid
 * (every built-in technique × a cache-friendly and a memory-bound
 * workload × 2 replica seeds) is hashed and compared against a
 * checked-in digest.
 *
 * This is the guard rail for hot-path refactors of the core model:
 * any change to architectural counters, event counts, seed mixing,
 * aggregation or export formatting moves the digest. If a change is
 * *supposed* to alter simulated behavior or the export schema,
 * regenerate the digest by running this test and copying the
 * "actual" value from the failure message into kGoldenDigest, and
 * say so in the PR; a refactor that only claims to make the
 * simulator faster must keep this test green untouched.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <string_view>

#include "sim/report.hh"
#include "sim/sweep.hh"
#include "workloads/family.hh"

namespace siq
{
namespace
{

/** FNV-1a 64-bit over the canonical JSON bytes. */
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

/**
 * The pinned grid. Budgets are tiny (the pin guards *behavior*, not
 * statistics): 6 techniques × 2 benchmarks × 2 seeds at 2k+10k
 * instructions simulates under a third of a million instructions.
 */
sim::SweepSpec
pinnedSpec()
{
    sim::SweepSpec spec;
    spec.benchmarks = {"gzip", "mcf"};
    spec.techniques = {"baseline", "noop",   "extension",
                       "improved", "abella", "folegnani"};
    spec.base.workload.repDivisor = 40;
    spec.base.warmupInsts = 2000;
    spec.base.measureInsts = 10000;
    spec.seeds = 2;
    spec.jobs = 2;
    return spec;
}

/** Generated at the pre-refactor commit of PR 4 (after the
 *  Student-t ci95 change, before the event-wheel refactor). */
constexpr std::uint64_t kGoldenDigest = 0x4039315e5bf964b3ull;

TEST(DeterminismPin, CanonicalSweepJsonMatchesGoldenDigest)
{
    sim::ExperimentRunner runner;
    sim::SweepResult result = runner.run(pinnedSpec());
    sim::canonicalize(result);

    std::ostringstream json;
    sim::writeJson(json, result);
    const std::uint64_t digest = fnv1a64(json.str());

    EXPECT_EQ(digest, kGoldenDigest)
        << "canonical sweep JSON changed: actual digest is "
        << hex(digest) << " (golden " << hex(kGoldenDigest) << ").\n"
        << "If this change intentionally alters simulated behavior "
           "or the export schema, update kGoldenDigest and call it "
           "out in the PR; a perf-only refactor must not get here.";
}

/** The digest is a pure function of the spec: a second run through a
 *  fresh runner (fresh caches, different scheduling) must reproduce
 *  it bit-for-bit — otherwise a digest mismatch above could be mere
 *  nondeterminism instead of a behavior change. */
TEST(DeterminismPin, DigestIsReproducibleAcrossRunnersAndJobs)
{
    auto spec = pinnedSpec();
    sim::ExperimentRunner a;
    sim::SweepResult ra = a.run(spec);
    sim::canonicalize(ra);
    std::ostringstream ja;
    sim::writeJson(ja, ra);

    spec.jobs = 1;
    sim::ExperimentRunner b;
    sim::SweepResult rb = b.run(spec);
    sim::canonicalize(rb);
    std::ostringstream jb;
    sim::writeJson(jb, rb);

    EXPECT_EQ(fnv1a64(ja.str()), fnv1a64(jb.str()));
    EXPECT_EQ(ja.str(), jb.str());
}

/**
 * Second pinned grid: the parameterized families (specfp/server/
 * phased) at their registry-default parameters, which the original
 * pin predates. Same tiny budgets, same regeneration policy as
 * kGoldenDigest.
 */
sim::SweepSpec
parameterizedPinnedSpec()
{
    sim::SweepSpec spec = pinnedSpec();
    spec.benchmarks = {"specfp", "server", "phased"};
    return spec;
}

/** Generated at the PR 8 commit that introduced this pin (oracle
 *  front end; the families themselves predate it unchanged). */
constexpr std::uint64_t kParameterizedGoldenDigest =
    0x0aa6f08251d3a7efull;

TEST(DeterminismPin, ParameterizedFamiliesMatchGoldenDigest)
{
    sim::ExperimentRunner runner;
    sim::SweepResult result = runner.run(parameterizedPinnedSpec());
    sim::canonicalize(result);

    std::ostringstream json;
    sim::writeJson(json, result);
    const std::uint64_t digest = fnv1a64(json.str());

    EXPECT_EQ(digest, kParameterizedGoldenDigest)
        << "canonical sweep JSON changed: actual digest is "
        << hex(digest) << " (golden "
        << hex(kParameterizedGoldenDigest) << ").\n"
        << "Same policy as kGoldenDigest: update only for intended "
           "behavior/schema changes, and call it out in the PR.";
}

// --------------------------------------------------------------------
// Speculative front end: not digest-pinned (its counters are new),
// but it must be exactly as deterministic as the oracle mode.
// --------------------------------------------------------------------

sim::SweepSpec
speculativeSpec()
{
    sim::SweepSpec spec = pinnedSpec();
    spec.base.core.specFrontEnd = true;
    return spec;
}

std::string
canonicalJson(const sim::SweepResult &r)
{
    sim::SweepResult copy = r;
    sim::canonicalize(copy);
    std::ostringstream json;
    sim::writeJson(json, copy);
    return json.str();
}

/** Wrong-path fetch, squash recovery and the speculation counters
 *  must be a pure function of the spec — worker count must not leak
 *  into them (the same property the oracle digest pin enforces). */
TEST(DeterminismPin, SpeculativeModeIsSeedDeterministicAcrossJobs)
{
    auto spec = speculativeSpec();
    spec.jobs = 1;
    sim::ExperimentRunner a;
    const std::string ja = canonicalJson(a.run(spec));

    spec.jobs = 4;
    sim::ExperimentRunner b;
    const std::string jb = canonicalJson(b.run(spec));

    EXPECT_EQ(fnv1a64(ja), fnv1a64(jb));
    EXPECT_EQ(ja, jb);
}

/** Every registered family must run to completion under the real
 *  front end with every technique, and every technique must actually
 *  speculate over the sweep: nonzero mispredicts, wrong-path fetches
 *  and squashes in the measured region. (Per-cell nonzero would be
 *  wrong: specfp and phased are regular loop nests whose branches the
 *  warmed hybrid predicts perfectly at these budgets — their zero
 *  mispredict counts are real behavior, not missing coverage.) */
TEST(DeterminismPin, SpeculativeSweepCoversAllFamiliesWithSquashes)
{
    sim::SweepSpec spec = speculativeSpec();
    spec.benchmarks = workloads::familyNames();
    spec.seeds = 1;
    spec.jobs = 4;
    sim::ExperimentRunner runner;
    const sim::SweepResult result = runner.run(spec);

    ASSERT_EQ(result.cells.size(),
              spec.benchmarks.size() * spec.techniques.size());
    std::map<std::string, CoreStats> byTech;
    for (const sim::RunResult &r : result.cells) {
        SCOPED_TRACE(r.benchmark + "/" + r.technique);
        EXPECT_GT(r.stats.committed, 0u);
        // one checkpointed recovery per mispredicted branch — up to
        // off-by-one at each end of the measured region (a mispredict
        // armed before the post-warmup stats reset resolves inside
        // it, and one armed near the end may not resolve at all; at
        // most one mispredict is ever outstanding)
        const std::uint64_t hi =
            std::max(r.stats.squashes, r.stats.branchMispredicts);
        const std::uint64_t lo =
            std::min(r.stats.squashes, r.stats.branchMispredicts);
        EXPECT_LE(hi - lo, 1u);
        CoreStats &t = byTech[r.technique];
        t.branchMispredicts += r.stats.branchMispredicts;
        t.wrongPathFetched += r.stats.wrongPathFetched;
        t.squashes += r.stats.squashes;
        t.squashedInsts += r.stats.squashedInsts;
    }
    ASSERT_EQ(byTech.size(), spec.techniques.size());
    for (const auto &[tech, t] : byTech) {
        SCOPED_TRACE(tech);
        EXPECT_GT(t.branchMispredicts, 0u);
        EXPECT_GT(t.wrongPathFetched, 0u);
        EXPECT_GT(t.squashes, 0u);
        EXPECT_GT(t.squashedInsts, 0u);
    }
}

} // namespace
} // namespace siq
