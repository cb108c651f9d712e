/**
 * @file
 * Load/store queue with oracle addresses.
 *
 * Because the core executes at fetch, every memory address is known at
 * dispatch; the LSQ therefore models perfect memory disambiguation
 * (identical across all configurations): a load may issue once every
 * older store to the same word has completed, and forwards from the
 * youngest such store when one exists. Entries live in program order
 * and are released at commit.
 */

#ifndef SIQ_CPU_LSQ_HH
#define SIQ_CPU_LSQ_HH

#include <cstdint>
#include <vector>

namespace siq
{

/** LSQ configuration (combined loads + stores). */
struct LsqConfig
{
    int numEntries = 64;
};

/** Program-order load/store queue. */
class Lsq
{
  public:
    explicit Lsq(const LsqConfig &config);

    bool full() const { return count >= cfg.numEntries; }
    int size() const { return count; }

    /** Allocate an entry at dispatch; @return the entry index. */
    int allocate(bool isStore, std::uint64_t wordAddr, int robIdx);

    /**
     * True when @p idx (a load) must wait: some older store to the
     * same address has not completed yet.
     */
    bool loadBlocked(int idx) const;

    /**
     * True when @p idx (an issueable load) receives its value through
     * store-to-load forwarding instead of the cache.
     */
    bool loadForwards(int idx) const;

    void markIssued(int idx) { entries[idx].issued = true; }

    void
    markCompleted(int idx)
    {
        Entry &e = entries[idx];
        if (e.isStore && !e.completed)
            pendingStores--;
        e.completed = true;
    }

    /** Release the oldest entry (commit order). */
    void releaseHead(int idx);

    /** Squash the @p n youngest entries (wrong-path recovery). */
    void squashTail(int n);

  private:
    struct Entry
    {
        bool valid = false;
        bool isStore = false;
        bool issued = false;
        bool completed = false;
        std::uint64_t addr = 0;
        int robIdx = -1;
    };

    int
    prev(int idx) const
    {
        return idx == 0 ? cfg.numEntries - 1 : idx - 1;
    }

    LsqConfig cfg;
    std::vector<Entry> entries;
    int head = 0;
    int tail = 0;
    int count = 0;
    /** Valid store entries / valid not-yet-completed store entries:
     *  early-outs for the per-issue-candidate program-order walks
     *  (no stores in flight → a load can neither block nor forward).
     *  Pure shortcuts — walk results are unchanged. */
    int numStores = 0;
    int pendingStores = 0;
};

} // namespace siq

#endif // SIQ_CPU_LSQ_HH
