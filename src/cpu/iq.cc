#include "cpu/iq.hh"

#include <algorithm>

#include "common/logging.hh"

namespace siq
{

void
IssueQueue::readyInsert(int slot)
{
    // binary search by current region position; relative positions
    // of live slots are invariant, so the vector stays sorted
    const int key = distFromHead(slot);
    const auto it = std::lower_bound(
        readySlots.begin(), readySlots.end(), key,
        [this](int s, int k) { return distFromHead(s) < k; });
    readySlots.insert(it, slot);
}

void
IssueQueue::readyRemove(int slot)
{
    const int key = distFromHead(slot);
    const auto it = std::lower_bound(
        readySlots.begin(), readySlots.end(), key,
        [this](int s, int k) { return distFromHead(s) < k; });
    if (it != readySlots.end() && *it == slot)
        readySlots.erase(it);
}

IssueQueue::IssueQueue(const IqConfig &config) : cfg(config)
{
    SIQ_ASSERT(cfg.numEntries > 0 && cfg.bankSize > 0 &&
               cfg.numEntries % cfg.bankSize == 0,
               "banks must tile the issue queue");
    nbanks = cfg.numEntries / cfg.bankSize;
    slots.assign(static_cast<std::size_t>(cfg.numEntries), {});
    bankValid.assign(static_cast<std::size_t>(nbanks), 0);
    // handles are file*256 + phys with phys < 256 (regHandleStride
    // in cpu/core.hh; the Core constructor asserts the invariant)
    waiters.assign(512, {});
    maxNewRange = cfg.numEntries; // unconstrained until a hint arrives
}

int
IssueQueue::dispatch(int robIdx, int psrc1, bool ready1, int psrc2,
                     bool ready2)
{
    SIQ_ASSERT(canDispatch(), "dispatch into a blocked queue");
    const int slot = tail;
    Entry &e = slots[slot];
    SIQ_ASSERT(!e.valid, "tail slot occupied");
    e.valid = true;
    e.robIdx = robIdx;
    e.psrc1 = psrc1;
    e.psrc2 = psrc2;
    e.ready1 = ready1 || psrc1 < 0;
    e.ready2 = ready2 || psrc2 < 0;
    const int bank = slot / cfg.bankSize;
    const int pending = (e.ready1 ? 0 : 1) + (e.ready2 ? 0 : 1);
    if (!e.ready1) {
        SIQ_ASSERT(psrc1 >= 0 &&
                   psrc1 < static_cast<int>(waiters.size()),
                   "tag out of range: ", psrc1);
        waiters[psrc1].push_back(slot * 2);
    }
    if (!e.ready2) {
        SIQ_ASSERT(psrc2 >= 0 &&
                   psrc2 < static_cast<int>(waiters.size()),
                   "tag out of range: ", psrc2);
        waiters[psrc2].push_back(slot * 2 + 1);
    }
    if (bankValid[bank]++ == 0)
        poweredBankCount++;
    pendingOps += pending;
    tail = next(tail);
    count++;
    regionLen++;
    newRegionLen++;
    events.dispatchWrites++;
    if (e.ready1 && e.ready2)
        readyInsert(slot);
    return slot;
}

void
IssueQueue::applyHint(int entries)
{
    if (entries < 1)
        entries = 1;
    if (entries > cfg.numEntries)
        entries = cfg.numEntries;
    maxNewRange = entries;
    newHead = tail;
    newRegionLen = 0;
}

void
IssueQueue::wakeup(int ptag)
{
    events.broadcasts++;
    events.cmpConventional +=
        2 * static_cast<std::uint64_t>(cfg.numEntries);

    // powered-bank operand slots (bank gating only, no operand
    // gating) — poweredBankCount is exactly the number of banks the
    // old per-bank scan found occupied
    events.cmpPowered += 2 * static_cast<std::uint64_t>(cfg.bankSize) *
                         static_cast<std::uint64_t>(poweredBankCount);

    // gated comparisons: only non-ready operands of valid entries
    // participate, and pendingOps is exactly their count — account
    // for them in bulk. The ready-bit updates then touch only this
    // tag's registered waiters (O(matches), not a region walk); each
    // record is re-validated against the live entry, so stale or
    // duplicate records are harmless no-ops.
    events.cmpGated += static_cast<std::uint64_t>(pendingOps);

    SIQ_ASSERT(ptag >= 0 && ptag < static_cast<int>(waiters.size()),
               "tag out of range: ", ptag);
    auto &ws = waiters[ptag];
    for (const int w : ws) {
        const int slot = w >> 1;
        Entry &e = slots[slot];
        if (!e.valid)
            continue; // stale: issued (or squashed) while pending
        const bool wasReady = e.ready1 && e.ready2;
        if ((w & 1) == 0) {
            if (e.ready1 || e.psrc1 != ptag)
                continue; // already woken, or the slot was reused
            e.ready1 = true;
        } else {
            if (e.ready2 || e.psrc2 != ptag)
                continue;
            e.ready2 = true;
        }
        pendingOps--;
        if (!wasReady && e.ready1 && e.ready2)
            readyInsert(slot);
    }
    ws.clear();
}

void
IssueQueue::collectReady(std::vector<Candidate> &out) const
{
    out.clear();
    for (const int slot : readySlots)
        out.push_back({slot, slots[slot].robIdx, distFromHead(slot)});
}

void
IssueQueue::markIssued(int slot)
{
    Entry &e = slots[slot];
    SIQ_ASSERT(e.valid, "issuing an empty slot");
    const int bank = slot / cfg.bankSize;
    // entries normally issue ready, but direct markIssued calls (and
    // any future squash path) may retire pending operands
    const int pending = (e.ready1 ? 0 : 1) + (e.ready2 ? 0 : 1);
    pendingOps -= pending;
    if (pending == 0)
        readyRemove(slot); // only ready entries are in the set
    e.valid = false;
    e.robIdx = -1;
    if (--bankValid[bank] == 0)
        poweredBankCount--;
    count--;
    events.issueReads++;
    if (slot == newHead)
        advanceNewHead();
    if (slot == head)
        advanceHead();
}

int
IssueQueue::squashTail(int n)
{
    SIQ_ASSERT(n >= 0, "negative squash span");
    // all still-valid squashed entries sit in the last
    // min(n, regionLen) slots of the region: a surviving pre-squash
    // entry further back would stretch the region past capacity
    const int m = n < regionLen ? n : regionLen;
    int newTail = tail - m;
    if (newTail < 0)
        newTail += cfg.numEntries;
    int dropped = 0;
    // counted walk: when the whole ring is squashed (m == numEntries)
    // newTail equals tail and a pointer-inequality loop would see an
    // empty span
    int slot = newTail;
    for (int i = 0; i < m; i++, slot = next(slot)) {
        Entry &e = slots[slot];
        if (!e.valid)
            continue; // already issued before the squash
        const int bank = slot / cfg.bankSize;
        const int pending = (e.ready1 ? 0 : 1) + (e.ready2 ? 0 : 1);
        pendingOps -= pending;
        if (pending == 0)
            readyRemove(slot); // only ready entries are in the set
        e.valid = false;
        e.robIdx = -1;
        if (--bankValid[bank] == 0)
            poweredBankCount--;
        count--;
        dropped++;
    }
    tail = newTail;
    regionLen -= m;
    if (newRegionLen >= m) {
        newRegionLen -= m;
    } else {
        // new_head was inside the squashed span
        newHead = tail;
        newRegionLen = 0;
    }
    if (regionLen == 0) {
        SIQ_ASSERT(count == 0, "empty region with valid entries");
        head = tail;
    }
    return dropped;
}

void
IssueQueue::advanceHead()
{
    while (regionLen > 0 && !slots[head].valid) {
        head = next(head);
        regionLen--;
    }
    if (regionLen == 0) {
        SIQ_ASSERT(count == 0, "empty region with valid entries");
    }
    // head may overtake a stale new_head when the new region drained
    if (newRegionLen > regionLen) {
        newHead = head;
        newRegionLen = regionLen;
    }
}

void
IssueQueue::advanceNewHead()
{
    while (newRegionLen > 0 && !slots[newHead].valid) {
        newHead = next(newHead);
        newRegionLen--;
    }
}

void
IssueQueue::tickStats()
{
    events.cycles++;
    events.occupancySum += static_cast<std::uint64_t>(count);
    events.poweredBankCycles +=
        static_cast<std::uint64_t>(poweredBanks());
    events.totalBankCycles += static_cast<std::uint64_t>(nbanks);
}

} // namespace siq
