/**
 * @file
 * Set-associative cache with LRU replacement.
 *
 * The model is latency-only: no bandwidth limits, no MSHRs, allocate on
 * every miss. That is the level of detail the paper's evaluation needs
 * (cache latency shapes the critical path; contention there is not
 * studied).
 */

#ifndef SIQ_MEM_CACHE_HH
#define SIQ_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace siq
{

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint32_t sizeBytes = 64 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t lineBytes = 32;
    int hitLatency = 1;
};

/** One cache level. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Look up a byte address; allocate the line on a miss.
     * @return true on hit.
     */
    bool access(std::uint64_t byteAddr);

    /** Look up without allocating or touching LRU state. */
    bool probe(std::uint64_t byteAddr) const;

    const CacheConfig &config() const { return _config; }
    std::uint64_t accesses() const { return _accesses.value(); }
    std::uint64_t misses() const { return _misses.value(); }

    void resetStats();

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::size_t setIndex(std::uint64_t byteAddr) const;
    std::uint64_t tagOf(std::uint64_t byteAddr) const;

    CacheConfig _config;
    std::uint32_t numSets;
    std::vector<Line> lines; // numSets * assoc
    std::uint64_t useCounter = 0;
    stats::Scalar _accesses;
    stats::Scalar _misses;
};

/** Table-1 three-level hierarchy: L1I + L1D backed by a unified L2. */
struct MemHierarchyConfig
{
    CacheConfig l1i{"l1i", 64 * 1024, 2, 32, 1};
    CacheConfig l1d{"l1d", 64 * 1024, 4, 32, 2};
    CacheConfig l2{"l2", 512 * 1024, 8, 64, 10};
    int memLatency = 50; ///< total latency of an L2 miss
};

/** The full data/instruction memory hierarchy. */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const MemHierarchyConfig &config);

    /** Fetch-side access; @return total latency in cycles. */
    int instAccess(std::uint64_t byteAddr);

    /** Data-side access (loads and committed stores). */
    int dataAccess(std::uint64_t byteAddr);

    Cache &l1i() { return _l1i; }
    Cache &l1d() { return _l1d; }
    Cache &l2() { return _l2; }

    void resetStats();

  private:
    MemHierarchyConfig _config;
    Cache _l1i;
    Cache _l1d;
    Cache _l2;
};

} // namespace siq

#endif // SIQ_MEM_CACHE_HH
