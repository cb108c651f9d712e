#include "compiler/pseudo_iq.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace siq::compiler
{

PseudoInst
toPseudoInst(const StaticInst &si, const PseudoIqConfig &cfg)
{
    PseudoInst pi;
    pi.fu = si.traits().fu;
    pi.latency = defaultCompilerLatency(si, cfg.l1dHitLatency);
    pi.pipelined = si.traits().pipelined;
    return pi;
}

PseudoIqSequence::PseudoIqSequence(
    std::vector<PseudoInst> insts, const std::vector<PseudoDep> &deps,
    const PseudoIqConfig &cfg,
    const std::array<int, numFuClasses> &fuBusyUntil)
    : insts_(std::move(insts)), cfg_(cfg), fuBusyUntil_(fuBusyUntil)
{
    const int n = static_cast<int>(insts_.size());
    const auto size = static_cast<std::size_t>(n);
    childBegin_.assign(size + 1, 0);
    parentCount_.assign(size, 0);
    for (const auto &d : deps) {
        SIQ_ASSERT(d.from >= 0 && d.from < n && d.to >= 0 && d.to < n,
                   "bad pseudo dep");
        parentCount_[d.to]++;
        childBegin_[d.from + 1]++;
    }
    for (int i = 0; i < n; i++)
        childBegin_[i + 1] += childBegin_[i];
    childIndex_.resize(deps.size());
    std::vector<int> fill(childBegin_.begin(), childBegin_.end() - 1);
    for (const auto &d : deps)
        childIndex_[fill[d.from]++] = d.to;

    readyAt_.resize(size);
    nextWaiting_.resize(size);
    pendingParents_.resize(size);
    for (int k = 1; k < numFuClasses; k++) {
        unitFreeAt_[k].resize(
            static_cast<std::size_t>(std::min(cfg_.fuCounts[k], 64)));
    }
}

void
PseudoIqSequence::drain(int rangeLimit, PseudoIqResult &res)
{
    const int n = static_cast<int>(insts_.size());
    res.entriesNeeded = 0;
    res.drainCycles = 0;
    res.widestWindow = 0;
    res.issueCycle.assign(static_cast<std::size_t>(n), -1);
    if (n == 0)
        return;

    for (int i = 0; i < n; i++)
        readyAt_[i] = insts_[i].externalReady;
    pendingParents_ = parentCount_;

    int remaining = n;
    int nextDispatch = 0;
    int oldestUnissued = 0; // the position new_head tracks
    int cycle = 0;
    constexpr int cycleGuard = 1 << 21;

    // the dispatched, unissued entries in program order, linked
    // through nextWaiting_: the issue scan visits only these, never
    // the issued holes between them
    constexpr int none = -1;
    int head = none;
    int tail = none;

    // per-unit occupancy: pipelined ops hold a unit one cycle,
    // non-pipelined ones for their whole latency; the Improved
    // scheme's callee pressure pre-occupies every unit
    for (int k = 1; k < numFuClasses; k++) {
        std::fill(unitFreeAt_[k].begin(), unitFreeAt_[k].end(),
                  fuBusyUntil_[k]);
    }
    // claim a free unit of the class for an op issuing this cycle
    auto takeUnit = [&](const PseudoInst &pi) {
        if (pi.fu == FuClass::None)
            return true;
        for (int &freeAt : unitFreeAt_[static_cast<int>(pi.fu)]) {
            if (freeAt <= cycle) {
                freeAt = pi.pipelined ? cycle + 1 : cycle + pi.latency;
                return true;
            }
        }
        return false;
    };
    auto dispatch = [&] {
        for (int d = 0; d < cfg_.dispatchWidth && nextDispatch < n &&
                        nextDispatch - oldestUnissued < rangeLimit;
             d++) {
            res.widestWindow = std::max(
                res.widestWindow, nextDispatch - oldestUnissued + 1);
            nextWaiting_[nextDispatch] = none;
            if (tail == none)
                head = nextDispatch;
            else
                nextWaiting_[tail] = nextDispatch;
            tail = nextDispatch++;
        }
    };

    // cycle 0 pre-fills the queue ("we place the first few
    // instructions in this pseudo issue queue"), then dispatches again
    // after its issue phase like every cycle; issue starts the cycle
    // after dispatch, so that phase issues nothing
    dispatch();
    dispatch();
    cycle = 1;

    while (remaining > 0) {
        SIQ_ASSERT(cycle < cycleGuard, "pseudo IQ failed to drain; "
                   "cyclic dependences in a DAG analysis?");
        int issued = 0;
        int youngestIssued = -1;
        const int oldestAtStart = oldestUnissued;

        int prev = none;
        for (int i = head; i != none && issued < cfg_.issueWidth;) {
            const int next = nextWaiting_[i];
            const PseudoInst &pi = insts_[i];
            if (pendingParents_[i] > 0 || readyAt_[i] > cycle ||
                !takeUnit(pi)) {
                prev = i;
                i = next;
                continue;
            }
            issued++;
            res.issueCycle[i] = cycle;
            youngestIssued = i;
            const int wb = cycle + pi.latency;
            for (int e = childBegin_[i]; e < childBegin_[i + 1]; e++) {
                const int c = childIndex_[e];
                pendingParents_[c]--;
                readyAt_[c] = std::max(readyAt_[c], wb);
            }
            // unlink i
            if (prev == none)
                head = next;
            else
                nextWaiting_[prev] = next;
            if (tail == i)
                tail = prev;
            i = next;
        }

        if (youngestIssued >= 0) {
            const int span = youngestIssued - oldestAtStart + 1;
            res.entriesNeeded = std::max(res.entriesNeeded, span);
            remaining -= issued;
            oldestUnissued = head != none ? head : nextDispatch;
            res.drainCycles = cycle + 1;
        }

        // dispatch after issue, as in the paper's figure 2 ("if
        // instruction a issues ... three more can be dispatched")
        dispatch();
        cycle++;
    }
}

RangeSearch
PseudoIqSequence::minimalRange(double slackFraction, bool strict)
{
    RangeSearch out;
    if (insts_.empty())
        return out;
    const PseudoIqResult &ref = out.reference;
    drain(cfg_.iqSize, out.reference);
    const int slack = static_cast<int>(
        static_cast<double>(ref.drainCycles) * slackFraction);
    const int drainBudget = ref.drainCycles + slack;

    auto acceptable = [&](int range) {
        // at or above the widest window the probe repeats the
        // reference drain decision for decision, and the reference
        // meets its own budget
        if (range >= ref.widestWindow && slack >= 0)
            return true;
        drain(range, probe_);
        if (probe_.drainCycles > drainBudget)
            return false;
        if (strict) {
            for (std::size_t i = 0; i < insts_.size(); i++) {
                if (probe_.issueCycle[i] > ref.issueCycle[i])
                    return false;
            }
        }
        return true;
    };

    int lo = 1;
    int hi = cfg_.iqSize;
    while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        if (acceptable(mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    out.range = lo;
    return out;
}

PseudoIqResult
simulatePseudoIq(const std::vector<PseudoInst> &insts,
                 const std::vector<PseudoDep> &deps,
                 const PseudoIqConfig &cfg,
                 const std::array<int, numFuClasses> &fuBusyUntil,
                 int rangeLimit)
{
    PseudoIqResult res;
    PseudoIqSequence(insts, deps, cfg, fuBusyUntil)
        .drain(rangeLimit, res);
    return res;
}

void
expandLoopDdg(const Ddg &body, int copies, const PseudoIqConfig &cfg,
              std::vector<PseudoInst> &insts,
              std::vector<PseudoDep> &deps)
{
    const int len = body.size();
    insts.clear();
    deps.clear();
    insts.reserve(static_cast<std::size_t>(len * copies));
    for (int u = 0; u < copies; u++) {
        for (int j = 0; j < len; j++)
            insts.push_back(toPseudoInst(*body.nodes[j].inst, cfg));
    }
    for (const auto &edge : body.edges) {
        for (int u = 0; u < copies; u++) {
            const int target = u + edge.distance;
            if (target >= copies)
                continue;
            deps.push_back(
                {u * len + edge.from, target * len + edge.to});
        }
    }
}

} // namespace siq::compiler
