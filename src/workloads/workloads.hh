/**
 * @file
 * Synthetic SPECint2000-profile workloads.
 *
 * The paper evaluates on eleven SPECint2000 benchmarks compiled with
 * MachineSUIF. SPEC sources/binaries are unavailable here, so each
 * benchmark is replaced by a synthetic program *in our IR* whose
 * dynamic character models what drives the paper's per-benchmark
 * variation: ILP shape, branch predictability, memory footprint,
 * call density and cross-procedure FU contention. See DESIGN.md §2.
 *
 * Profiles (rationale in each generator's file):
 *  - gzip: high-ILP hash/window loops, cache-friendly
 *  - vpr: int+fp bounding-box cost loops, data-dependent abs branches
 *  - gcc: many tiny procedures, dense branching, a 24-way switch
 *  - mcf: serial pointer chasing over an L2-busting working set
 *  - crafty: bitboard logic chains, predictable branches, eval calls
 *  - parser: tree recursion with stack spills plus list walks
 *  - perlbmk: bytecode interpreter with a 16-way indirect dispatch
 *  - gap: digit-array multiply-accumulate with carry chains
 *  - vortex: call-dense object accessors, mul-heavy around calls
 *  - bzip2: sort loop, data-dependent compares, hot rank() callee
 *  - twolf: mixed int/fp cell-cost loops with occasional divides
 */

#ifndef SIQ_WORKLOADS_WORKLOADS_HH
#define SIQ_WORKLOADS_WORKLOADS_HH

#include <algorithm>
#include <compare>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ir/program.hh"

namespace siq::workloads
{

/** Knobs shared by all generators. */
struct WorkloadParams
{
    /**
     * Linear multiplier on the outermost repetition counts: the
     * natural (run-to-completion) dynamic length is roughly
     * scale * 2-4M instructions.
     */
    int scale = 1;
    /**
     * Divides the repetition counts (after scale); tests use large
     * divisors to get run-to-completion programs of ~100k dynamic
     * instructions.
     */
    int repDivisor = 1;
    /** Seed for all generator-internal randomness. */
    std::uint64_t seed = 12345;

    /** Outer repetition count for a generator's base value. */
    int
    reps(int base) const
    {
        // in 64 bits: base * scale overflows int for a large scale
        const std::int64_t r = std::int64_t{base} * scale /
                               (repDivisor > 0 ? repDivisor : 1);
        return static_cast<int>(
            std::clamp<std::int64_t>(r, 1, std::numeric_limits<int>::max()));
    }

    auto operator<=>(const WorkloadParams &) const = default;
};

/** The eleven SPECint benchmark names, in the paper's figure order
 *  (a stable subset of familyNames() — see workloads/family.hh for
 *  the full registry including the parameterized families). */
const std::vector<std::string> &benchmarkNames();

/**
 * Generate the named workload. @p name is any canonical-or-not
 * workload spec string — a plain family name ("gzip") or a
 * parameterized one ("phased:period=60000") — resolved through the
 * family registry (workloads/family.hh). Fatal on unknown names,
 * with the registered families listed in the message.
 */
Program generate(const std::string &name, const WorkloadParams &params);

/// @name Individual generators.
/// @{
Program genGzip(const WorkloadParams &params);
Program genVpr(const WorkloadParams &params);
Program genGcc(const WorkloadParams &params);
Program genMcf(const WorkloadParams &params);
Program genCrafty(const WorkloadParams &params);
Program genParser(const WorkloadParams &params);
Program genPerlbmk(const WorkloadParams &params);
Program genGap(const WorkloadParams &params);
Program genVortex(const WorkloadParams &params);
Program genBzip2(const WorkloadParams &params);
Program genTwolf(const WorkloadParams &params);
/// @}

} // namespace siq::workloads

#endif // SIQ_WORKLOADS_WORKLOADS_HH
