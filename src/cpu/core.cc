#include "cpu/core.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace siq
{

namespace
{
/** Physical register handle: file selector in the high bits (see
 *  regHandleStride in core.hh for the packing invariant). */
int
handleOf(int file, int phys)
{
    return file * regHandleStride + phys;
}
} // namespace

void
CompletionWheel::init(int maxLatency)
{
    SIQ_ASSERT(maxLatency >= 1, "wheel needs a positive horizon");
    constexpr std::uint64_t slotCap = 4096;
    const auto want = static_cast<std::uint64_t>(maxLatency) + 2;
    const std::uint64_t n =
        std::bit_ceil(want < slotCap ? want : slotCap);
    slots.assign(n, {});
    mask = n - 1;
}

void
CompletionWheel::popDue(std::uint64_t now, std::vector<Completion> &out)
{
    out.clear();
    auto &vec = slots[now & mask];
    std::size_t keep = 0;
    for (const Event &ev : vec) {
        if (ev.cycle == now)
            out.push_back({ev.robIdx, ev.gen});
        else
            vec[keep++] = ev; // beyond-horizon lap: keep, in order
    }
    vec.resize(keep);
}

Core::Core(const Program &prog_, const CoreConfig &config,
           IqLimitController *controller)
    : prog(prog_), cfg(config), ctrl(controller), _exec(prog_),
      mem(config.mem), _bpred(config.bpred), iq(config.iq),
      lsq(config.lsq), intRegs(config.intRegs), fpRegs(config.fpRegs)
{
    SIQ_ASSERT(cfg.robSize > 0, "empty ROB");
    SIQ_ASSERT(cfg.fetchQueueSize > 0, "empty fetch queue");
    SIQ_ASSERT(cfg.intRegs.numPhys <= regHandleStride &&
               cfg.fpRegs.numPhys <= regHandleStride,
               "handle packing requires phys < ", regHandleStride);
    rob.assign(static_cast<std::size_t>(cfg.robSize), RobCold{});
    robHot.assign(static_cast<std::size_t>(cfg.robSize), RobHot{});
    robCompleted.assign(static_cast<std::size_t>(cfg.robSize), 0);
    robGen.assign(static_cast<std::size_t>(cfg.robSize), 0);
    fetchQueue.assign(static_cast<std::size_t>(cfg.fetchQueueSize),
                      DynInst{});
    if (cfg.specFrontEnd) {
        // wrong-path fetch resolves predicted target PCs statically
        for (std::size_t p = 0; p < prog.procs.size(); p++) {
            const Procedure &proc = prog.procs[p];
            for (std::size_t b = 0; b < proc.blocks.size(); b++) {
                const BasicBlock &blk = proc.blocks[b];
                for (std::size_t i = 0; i < blk.insts.size(); i++) {
                    pcIndex.emplace(
                        blk.insts[i].pc,
                        PcLoc{&blk.insts[i], static_cast<int>(p),
                              static_cast<int>(b),
                              static_cast<int>(i)});
                }
            }
        }
    }
    // the wheel's one-lap horizon covers every latency the model can
    // produce: FU latencies plus the configured cache/memory path
    wheel.init(std::max({maxOpcodeLatency(), cfg.mem.l1d.hitLatency,
                         cfg.mem.l2.hitLatency, cfg.mem.memLatency,
                         1}));
}

int
Core::fuUnitsBusy(int fu)
{
    if (nonPipedPruned[fu] != now) {
        auto &busy = nonPipedBusy[fu];
        std::erase_if(busy, [this](std::uint64_t until) {
            return until <= now;
        });
        nonPipedCount[fu] = static_cast<int>(busy.size());
        nonPipedPruned[fu] = now;
    }
    return nonPipedCount[fu];
}

void
Core::noteNonPipedIssue(int fu, std::uint64_t until)
{
    fuUnitsBusy(fu); // make this cycle's memoized count current
    nonPipedBusy[fu].push_back(until);
    nonPipedCount[fu]++;
}

int
Core::sourceHandle(int archReg, bool &ready) const
{
    if (archReg < 0 || archReg == zeroReg) {
        ready = true;
        return -1;
    }
    if (archReg >= fpRegBase) {
        const int phys = fpRegs.lookup(archReg - fpRegBase);
        ready = fpRegs.isReady(phys);
        return handleOf(1, phys);
    }
    const int phys = intRegs.lookup(archReg);
    ready = intRegs.isReady(phys);
    return handleOf(0, phys);
}

void
Core::predictControl(DynInst &di, std::uint64_t actualNext)
{
    const StaticInst &si = *di.si;
    const auto &t = si.traits();
    const StepResult &sr = di.step;
    const std::uint64_t pc = di.pc;

    bool mispredict = false;
    bool frontRedirect = false;
    // where wrong-path fetch starts (speculative mode): the path the
    // predictor chose, not the path the program took. 0 = the front
    // end has nothing to follow (empty RAS, cold BTB) and gates.
    std::uint64_t wpStart = 0;

    if (t.isBranch) {
        _stats.condBranches++;
        const bool predTaken = _bpred.predictDirection(pc);
        const std::uint64_t btbTarget = _bpred.btbLookup(pc);
        if (predTaken != sr.taken) {
            mispredict = true;
            if (cfg.specFrontEnd) {
                // direct branches resolve both targets at decode, so
                // the wrong path is the other static arm
                const PcLoc &loc = pcIndex.at(pc);
                const BasicBlock &blk =
                    prog.procs[loc.proc].blocks[loc.block];
                if (sr.taken) {
                    wpStart =
                        loc.instIdx + 1 <
                                static_cast<int>(blk.insts.size())
                            ? blk.insts[loc.instIdx + 1].pc
                            : blockStartPc(prog, loc.proc,
                                           blk.fallthrough);
                } else {
                    wpStart =
                        blockStartPc(prog, loc.proc, si.target);
                }
            }
        } else if (sr.taken && btbTarget != actualNext) {
            // right direction, target resolved at decode
            frontRedirect = true;
        }
        _bpred.updateDirection(pc, sr.taken);
        if (sr.taken)
            _bpred.btbUpdate(pc, actualNext);
    } else if (si.op == Opcode::Jump || si.op == Opcode::Call) {
        const std::uint64_t btbTarget = _bpred.btbLookup(pc);
        if (btbTarget != actualNext)
            frontRedirect = true;
        _bpred.btbUpdate(pc, actualNext);
        if (si.op == Opcode::Call) {
            // the return site: the call block's fallthrough, resolved
            // through empty blocks like the interpreter resolves it
            _bpred.rasPush(blockStartPc(
                prog, sr.proc,
                prog.procs[sr.proc].blocks[sr.block].fallthrough));
        }
    } else if (si.op == Opcode::Ret) {
        const std::uint64_t predicted = _bpred.rasPop();
        if (predicted != actualNext && !sr.halted) {
            mispredict = true;
            wpStart = predicted;
        }
    } else if (si.op == Opcode::IJump) {
        const std::uint64_t btbTarget = _bpred.btbLookup(pc);
        if (btbTarget != actualNext) {
            mispredict = true;
            wpStart = btbTarget;
        }
        _bpred.btbUpdate(pc, actualNext);
    }

    if (mispredict) {
        di.stallsFetch = true;
        _stats.branchMispredicts++;
        _bpred.countMispredict();
        // arm after the branch's own predictor update: the snapshot
        // taken here is the exact state correct-path fetch resumes
        // from, so the squash undoes only wrong-path training
        if (cfg.specFrontEnd)
            armWrongPath(wpStart);
    } else if (frontRedirect) {
        _stats.frontRedirects++;
        fetchResumeCycle = now + static_cast<std::uint64_t>(
                                     cfg.decodeDepth);
    }
}

void
Core::commitStage()
{
    int committed = 0;
    while (committed < cfg.commitWidth && robCount > 0 &&
           !coreHalted) {
        if (!robCompleted[robHead])
            break;
        const RobCold &di = rob[robHead];
        const RobHot &h = robHot[robHead];
        if (h.flags & robFlagStore)
            mem.dataAccess(h.memAddr * 8);
        if (h.flags & (robFlagLoad | robFlagStore))
            lsq.releaseHead(h.lsqIdx);
        if (di.oldPdst >= 0) {
            (di.dstFile == 1 ? fpRegs : intRegs)
                .release(di.oldPdst);
        }
        if (di.si->op == Opcode::Halt)
            coreHalted = true;
        robHead = robHead + 1 == cfg.robSize ? 0 : robHead + 1;
        robCount--;
        committed++;
        _stats.committed++;
    }
}

void
Core::writebackStage()
{
    wheel.popDue(now, wbScratch);
    for (const auto &ev : wbScratch) {
        // an event scheduled under a generation a squash has since
        // bumped belongs to a flushed entry (possibly re-dispatched):
        // discard it. Re-checked per event, not once per batch — the
        // squash below may invalidate later events of this same cycle.
        if (ev.gen != robGen[ev.robIdx])
            continue;
        const int robIdx = ev.robIdx;
        const RobHot &h = robHot[robIdx];
        robCompleted[robIdx] = 1;
        if (h.pdstHandle >= 0) {
            if (h.pdstHandle >= regHandleStride) {
                fpRegs.setReady(h.pdstHandle - regHandleStride);
                _stats.rfFpWrites++;
            } else {
                intRegs.setReady(h.pdstHandle);
                _stats.rfIntWrites++;
            }
            iq.wakeup(h.pdstHandle);
        }
        if (h.flags & robFlagStore)
            lsq.markCompleted(h.lsqIdx);
        if (h.flags & robFlagStallsFetch) {
            if (cfg.specFrontEnd)
                squashWrongPath();
            fetchBlocked = false;
            fetchResumeCycle =
                std::max<std::uint64_t>(fetchResumeCycle, now + 1);
        }
    }
}

void
Core::issueStage()
{
    iq.collectReady(readyScratch);
    std::array<int, coreNumFuClasses> fuUsed{};
    const int regionAtStart = iq.regionSize();
    int issued = 0;

    for (const auto &cand : readyScratch) {
        if (issued >= cfg.issueWidth)
            break;
        const RobHot &h = robHot[cand.robIdx];
        const int fu = h.fu;
        // a pipelined unit is busy for one issue slot; a
        // non-pipelined one (divides) holds its unit for the full
        // latency, tracked in fuUnitsBusy
        if (fu != static_cast<int>(FuClass::None) &&
            fuUsed[fu] + fuUnitsBusy(fu) >= cfg.fuCounts[fu]) {
            continue;
        }
        if ((h.flags & robFlagLoad) && lsq.loadBlocked(h.lsqIdx))
            continue;

        const bool wrongPath = (h.flags & robFlagWrongPath) != 0;
        int latency = h.latency;
        if (h.flags & robFlagLoad) {
            if (!wrongPath)
                _stats.loads++;
            if (lsq.loadForwards(h.lsqIdx)) {
                latency = 1;
                if (!wrongPath)
                    _stats.loadForwards++;
            } else {
                latency = mem.dataAccess(h.memAddr * 8);
            }
        }
        if (h.flags & robFlagPipelined) {
            fuUsed[fu]++;
        } else {
            noteNonPipedIssue(
                fu, now + static_cast<std::uint64_t>(latency));
        }
        issued++;
        iq.markIssued(cand.slot);
        if (h.flags & (robFlagLoad | robFlagStore))
            lsq.markIssued(h.lsqIdx);
        wheel.schedule(now + static_cast<std::uint64_t>(latency),
                       cand.robIdx, robGen[cand.robIdx]);

        if (h.psrc1 >= 0) {
            if (h.psrc1 >= regHandleStride)
                _stats.rfFpReads++;
            else
                _stats.rfIntReads++;
        }
        if (h.psrc2 >= 0) {
            if (h.psrc2 >= regHandleStride)
                _stats.rfFpReads++;
            else
                _stats.rfIntReads++;
        }
        if (wrongPath)
            _stats.wrongPathIssued++;
        else
            _stats.issued++;
        if (regionAtStart - 1 - cand.distFromHead < cfg.iq.bankSize)
            signals.issuedFromYoungestBank++;
    }
}

void
Core::dispatchStage()
{
    int dispatched = 0;
    while (dispatched < cfg.dispatchWidth && fqCount > 0) {
        DynInst &front = fetchQueue[fqHead];
        if (front.decodeReadyCycle > now)
            break;

        // special NOOPs are stripped here, in the last decode stage,
        // consuming a dispatch slot (paper §5.2.1). A wrong-path hint
        // must not retrain the IQ sizing — the squash cannot undo an
        // applyHint — so it only burns the slot.
        if (front.si->op == Opcode::Hint) {
            if (front.wrongPath) {
                _stats.wrongPathDispatched++;
            } else {
                iq.applyHint(front.si->hintValue);
                _stats.hintsApplied++;
            }
            fqPop();
            dispatched++;
            continue;
        }

        const auto &t = front.si->traits();
        const bool needsIq = t.fu != FuClass::None;

        if (robCount >= cfg.robSize) {
            _stats.dispatchStallRob++;
            break;
        }
        if (ctrl != nullptr && robCount >= ctrl->robLimit()) {
            _stats.dispatchStallLimit++;
            signals.dispatchStalledByLimit = true;
            break;
        }
        if (needsIq && iq.regionFull()) {
            _stats.dispatchStallIqFull++;
            break;
        }
        if (needsIq && ctrl != nullptr &&
            iq.validCount() >= ctrl->iqLimit()) {
            _stats.dispatchStallLimit++;
            signals.dispatchStalledByLimit = true;
            break;
        }
        // Extension scheme: the tag applies when the tagged
        // instruction dispatches, before the range check, so the
        // tagged instruction starts its own region
        if (front.si->tagHint != 0 && !front.hintApplied) {
            iq.applyHint(front.si->tagHint);
            front.hintApplied = true;
            _stats.hintsApplied++;
        }
        if (needsIq && iq.rangeBlocked()) {
            _stats.dispatchStallRange++;
            break;
        }
        if ((t.isLoad || t.isStore) && lsq.full()) {
            _stats.dispatchStallLsq++;
            break;
        }
        int dstFile = -1;
        if (front.si->writesLiveReg())
            dstFile = front.si->dst >= fpRegBase ? 1 : 0;
        if (dstFile == 0 && !intRegs.hasFree()) {
            _stats.dispatchStallRegs++;
            break;
        }
        if (dstFile == 1 && !fpRegs.hasFree()) {
            _stats.dispatchStallRegs++;
            break;
        }

        // rename in place in the fetch-queue slot, then copy once
        // into the ROB (the slot stays untouched until a later fetch
        // reuses it)
        bool ready1 = true;
        bool ready2 = true;
        front.psrc1 = t.readsSrc1
                          ? sourceHandle(front.si->src1, ready1)
                          : -1;
        front.psrc2 = t.readsSrc2
                          ? sourceHandle(front.si->src2, ready2)
                          : -1;
        front.dstFile = dstFile;
        if (dstFile >= 0) {
            auto &file = dstFile == 1 ? fpRegs : intRegs;
            const int arch = dstFile == 1
                                 ? front.si->dst - fpRegBase
                                 : front.si->dst;
            const auto [fresh, old] = file.rename(arch);
            front.pdst = fresh;
            front.oldPdst = old;
        }

        const int robIdx = robTail;
        if (t.isLoad || t.isStore)
            front.lsqIdx = lsq.allocate(t.isStore,
                                        front.step.memAddr, robIdx);
        if (t.isStore && !front.wrongPath)
            _stats.stores++;
        if (needsIq) {
            iq.dispatch(robIdx, front.psrc1, ready1, front.psrc2,
                        ready2);
        }
        rob[robIdx] = {front.si, front.oldPdst,
                       static_cast<std::int8_t>(dstFile)};
        RobHot &h = robHot[robIdx];
        h.memAddr = front.step.memAddr;
        h.lsqIdx = front.lsqIdx;
        h.pdstHandle =
            dstFile >= 0 ? handleOf(dstFile, front.pdst) : -1;
        h.psrc1 = front.psrc1;
        h.psrc2 = front.psrc2;
        h.latency = static_cast<std::int16_t>(t.latency);
        h.fu = static_cast<std::int8_t>(t.fu);
        h.flags = static_cast<std::uint8_t>(
            (t.pipelined ? robFlagPipelined : 0) |
            (t.isLoad ? robFlagLoad : 0) |
            (t.isStore ? robFlagStore : 0) |
            (front.stallsFetch ? robFlagStallsFetch : 0) |
            (front.wrongPath ? robFlagWrongPath : 0));
        // Nop/Halt never execute: complete at dispatch
        robCompleted[robIdx] = needsIq ? 0 : 1;
        // the mispredicted branch just renamed itself: the maps are
        // now exactly the state the squash must restore (wrong-path
        // instructions sit behind it and dispatch strictly later)
        if (cfg.specFrontEnd && front.stallsFetch) {
            ckpt.branchRobIdx = robIdx;
            intRegs.snapshotMap(ckpt.intMap);
            fpRegs.snapshotMap(ckpt.fpMap);
        }
        fqPop();
        robTail = robTail + 1 == cfg.robSize ? 0 : robTail + 1;
        robCount++;
        dispatched++;
        if (front.wrongPath)
            _stats.wrongPathDispatched++;
        else
            _stats.dispatched++;
    }
}

void
Core::fetchStage()
{
    if (now < fetchResumeCycle || now < icacheReadyCycle)
        return;
    // while a mispredicted branch is in flight the front end follows
    // the predicted path; fetchBlocked gates only the correct path
    if (wpActive) {
        wrongPathFetchStage();
        return;
    }
    if (fetchDone || fetchBlocked)
        return;
    int fetched = 0;
    while (fetched < cfg.fetchWidth &&
           fqCount < cfg.fetchQueueSize && !_exec.halted()) {
        // the next instruction's PC, without consuming it: the icache
        // check below may end the fetch group before it is fetched
        const std::uint64_t pc = _exec.peek().pc;
        const std::uint64_t line = pc / cfg.mem.l1i.lineBytes;
        if (line != lastFetchLine) {
            const int latency = mem.instAccess(pc);
            lastFetchLine = line;
            if (latency > 1) {
                icacheReadyCycle =
                    now + static_cast<std::uint64_t>(latency);
                break;
            }
        }

        DynInst &di = fetchQueue[fqTail];
        // reset only what dispatch reads before (re)assigning it —
        // everything else is written below or at dispatch
        di.oldPdst = -1;
        di.lsqIdx = -1;
        di.hintApplied = false;
        di.stallsFetch = false;
        di.wrongPath = false;
        di.step = _exec.step();
        // the resolved next PC is the interpreter's new position (0
        // once the program ended)
        const std::uint64_t actualNext =
            di.step.halted ? 0 : _exec.peek().pc;
        di.si = di.step.inst;
        di.pc = di.si->pc;
        di.decodeReadyCycle =
            now + static_cast<std::uint64_t>(cfg.decodeDepth);

        const std::uint64_t resumeBefore = fetchResumeCycle;
        predictControl(di, actualNext);
        const bool redirected = fetchResumeCycle != resumeBefore;
        const bool taken =
            di.step.taken || di.si->traits().isJump;

        fqTail = fqTail + 1 == cfg.fetchQueueSize ? 0 : fqTail + 1;
        fqCount++;
        _stats.fetched++;
        fetched++;

        if (_exec.halted())
            fetchDone = true;
        if (di.stallsFetch) {
            fetchBlocked = true;
            break;
        }
        if (redirected || taken)
            break; // cannot fetch past a taken control this cycle
    }
}

void
Core::armWrongPath(std::uint64_t startPc)
{
    // mispredicts are only detected at correct-path fetch, which is
    // paused until this one resolves — checkpoints cannot nest
    SIQ_ASSERT(!wpActive, "nested mispredict checkpoint");
    wpActive = true;
    wpStalled = startPc == 0;
    wpPc = startPc;
    ckpt.armCycle = now;
    ckpt.branchRobIdx = -1;
    _bpred.save(ckpt.bpred);
}

void
Core::wrongPathFetchStage()
{
    if (wpStalled)
        return;
    int fetched = 0;
    while (fetched < cfg.fetchWidth && fqCount < cfg.fetchQueueSize) {
        const auto it = pcIndex.find(wpPc);
        if (it == pcIndex.end()) {
            // a stale BTB/RAS entry predicted a PC that is no longer
            // (or never was) an instruction: misfetch, gate until the
            // squash
            wpStalled = true;
            return;
        }
        const PcLoc &loc = it->second;
        const std::uint64_t line = wpPc / cfg.mem.l1i.lineBytes;
        if (line != lastFetchLine) {
            const int latency = mem.instAccess(wpPc);
            lastFetchLine = line;
            if (latency > 1) {
                icacheReadyCycle =
                    now + static_cast<std::uint64_t>(latency);
                return;
            }
        }

        DynInst &di = fetchQueue[fqTail];
        di.oldPdst = -1;
        di.lsqIdx = -1;
        // hintApplied pre-set: tag hints are correct-path-only (like
        // Hint NOOPs, their applyHint cannot be undone by the squash)
        di.hintApplied = true;
        di.stallsFetch = false;
        di.wrongPath = true;
        di.si = loc.si;
        di.pc = wpPc;
        di.step = StepResult{};
        di.step.inst = loc.si;
        // loads/stores need an address; the architectural one does
        // not exist (the op never really executes)
        di.step.memAddr = wrongPathMemAddr(wpPc);
        di.decodeReadyCycle =
            now + static_cast<std::uint64_t>(cfg.decodeDepth);

        const WpNext nxt = wrongPathNextPc(loc);

        fqTail = fqTail + 1 == cfg.fetchQueueSize ? 0 : fqTail + 1;
        fqCount++;
        _stats.wrongPathFetched++;
        fetched++;

        if (nxt.pc == 0) {
            // halt, dead-end fallthrough chain, empty RAS or cold BTB
            wpStalled = true;
            return;
        }
        wpPc = nxt.pc;
        if (nxt.taken)
            return; // cannot fetch past a taken control this cycle
    }
}

Core::WpNext
Core::wrongPathNextPc(const PcLoc &loc)
{
    const StaticInst &si = *loc.si;
    const BasicBlock &blk = prog.procs[loc.proc].blocks[loc.block];
    // sequential successor in the static layout
    const auto seqPc = [&]() -> std::uint64_t {
        if (loc.instIdx + 1 < static_cast<int>(blk.insts.size()))
            return blk.insts[loc.instIdx + 1].pc;
        return blockStartPc(prog, loc.proc, blk.fallthrough);
    };
    if (si.traits().isBranch) {
        // predictor-guided: shifts speculative history (restored at
        // the squash) but trains no table — the outcome is unknown
        const bool taken = _bpred.speculateDirection(si.pc);
        if (taken)
            return {blockStartPc(prog, loc.proc, si.target), true};
        return {seqPc(), false};
    }
    switch (si.op) {
    case Opcode::Jump:
        return {blockStartPc(prog, loc.proc, si.target), true};
    case Opcode::Call:
        // same push value as correct-path fetch (the caller block's
        // fallthrough); block 0 is the callee's entry
        _bpred.rasPush(
            blockStartPc(prog, loc.proc, blk.fallthrough));
        return {blockStartPc(prog, si.target, 0), true};
    case Opcode::Ret:
        return {_bpred.rasPop(), true};
    case Opcode::IJump:
        return {_bpred.btbLookup(si.pc), true};
    case Opcode::Halt:
        return {0, true};
    default:
        return {seqPc(), false};
    }
}

std::uint64_t
Core::wrongPathMemAddr(std::uint64_t pc) const
{
    // splitmix64 finalizer: deterministic, well-spread synthetic word
    // address — same pc, same address, every run and thread count
    std::uint64_t z = pc + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return z % prog.memWords;
}

void
Core::squashWrongPath()
{
    SIQ_ASSERT(wpActive, "squash without an armed wrong path");
    SIQ_ASSERT(ckpt.branchRobIdx >= 0,
               "branch resolved before it dispatched");

    // flush ROB entries younger than the branch (walk oldest-first
    // from just past it to the tail), releasing the fresh physical
    // register each one allocated — its previous mapping returns via
    // the checkpointed map below
    int flushed = 0;
    int iqDispatches = 0;
    int lsqEntries = 0;
    int idx = ckpt.branchRobIdx + 1 == cfg.robSize
                  ? 0
                  : ckpt.branchRobIdx + 1;
    while (idx != robTail) {
        const RobHot &h = robHot[idx];
        SIQ_ASSERT(h.flags & robFlagWrongPath,
                   "correct-path entry younger than the mispredict");
        if (h.pdstHandle >= 0) {
            if (h.pdstHandle >= regHandleStride)
                fpRegs.release(h.pdstHandle - regHandleStride);
            else
                intRegs.release(h.pdstHandle);
        }
        if (rob[idx].si->traits().fu != FuClass::None)
            iqDispatches++;
        if (h.flags & (robFlagLoad | robFlagStore))
            lsqEntries++;
        robGen[idx]++; // invalidate any in-flight completion event
        robCompleted[idx] = 0;
        flushed++;
        idx = idx + 1 == cfg.robSize ? 0 : idx + 1;
    }
    robTail = ckpt.branchRobIdx + 1 == cfg.robSize
                  ? 0
                  : ckpt.branchRobIdx + 1;
    robCount -= flushed;

    iq.squashTail(iqDispatches);
    lsq.squashTail(lsqEntries);

    // the fetch queue holds only wrong-path instructions: everything
    // fetched before the branch dispatched before it (in order), and
    // correct-path fetch has been paused since
    const int fqFlushed = fqCount;
    for (int i = 0, s = fqHead; i < fqCount;
         i++, s = s + 1 == cfg.fetchQueueSize ? 0 : s + 1) {
        SIQ_ASSERT(fetchQueue[s].wrongPath,
                   "correct-path instruction behind the mispredict");
    }
    fqTail = fqHead;
    fqCount = 0;

    intRegs.restoreMap(ckpt.intMap);
    fpRegs.restoreMap(ckpt.fpMap);
    _bpred.restore(ckpt.bpred);

    _stats.squashes++;
    _stats.squashCycles += now - ckpt.armCycle;
    _stats.squashedInsts +=
        static_cast<std::uint64_t>(flushed + fqFlushed);

    wpActive = false;
    wpStalled = false;
    wpPc = 0;
    ckpt.branchRobIdx = -1;
    // lastFetchLine stays: the wrong path really did pull its lines
    // into the icache (pollution is part of the model)
}

void
Core::auditArchState() const
{
    SIQ_ASSERT(robCount >= 0 && robCount <= cfg.robSize,
               "ROB count out of range: ", robCount);
    SIQ_ASSERT((robHead + robCount) % cfg.robSize == robTail,
               "ROB ring pointers inconsistent");
    SIQ_ASSERT(fqCount >= 0 && fqCount <= cfg.fetchQueueSize,
               "fetch-queue count out of range: ", fqCount);
    SIQ_ASSERT((fqHead + fqCount) % cfg.fetchQueueSize == fqTail,
               "fetch-queue ring pointers inconsistent");

    // rename discipline: every allocated physical register is
    // referenced exactly once — by the map, or as the pending oldPdst
    // release of exactly one in-flight ROB entry
    const auto auditFile = [this](const RegFile &rf, int file) {
        std::vector<int> refs(
            static_cast<std::size_t>(rf.config().numPhys), 0);
        for (int a = 0; a < rf.config().numArch; a++) {
            const int p = rf.lookup(a);
            SIQ_ASSERT(p >= 0 && p < rf.config().numPhys,
                       "map entry out of range: ", p);
            refs[p]++;
        }
        int idx = robHead;
        for (int i = 0; i < robCount; i++) {
            const RobCold &c = rob[idx];
            if (c.dstFile == file && c.oldPdst >= 0)
                refs[c.oldPdst]++;
            idx = idx + 1 == cfg.robSize ? 0 : idx + 1;
        }
        int referenced = 0;
        for (const int r : refs) {
            SIQ_ASSERT(r <= 1, "physical register referenced ", r,
                       " times");
            referenced += r;
        }
        SIQ_ASSERT(referenced == rf.config().numPhys - rf.freeRegs(),
                   "free list disagrees with reachable registers: ",
                   referenced, " referenced, ", rf.freeRegs(),
                   " free of ", rf.config().numPhys);
        SIQ_ASSERT(referenced == rf.liveRegs(),
                   "bank liveness disagrees with reachable registers");
    };
    auditFile(intRegs, 0);
    auditFile(fpRegs, 1);

    // LSQ population matches the in-flight memory ops exactly
    int memOps = 0;
    int idx = robHead;
    for (int i = 0; i < robCount; i++) {
        if (robHot[idx].flags & (robFlagLoad | robFlagStore))
            memOps++;
        idx = idx + 1 == cfg.robSize ? 0 : idx + 1;
    }
    SIQ_ASSERT(memOps == lsq.size(), "LSQ holds ", lsq.size(),
               " entries but ", memOps, " memory ops are in flight");
    SIQ_ASSERT(iq.validCount() <= robCount,
               "more IQ entries than ROB entries");
}

void
Core::tick()
{
    signals = ResizeSignals{};
    signals.cycle = now;

    commitStage();
    writebackStage();
    issueStage();
    dispatchStage();
    fetchStage();

    // per-cycle statistics
    iq.tickStats();
    _stats.rfIntLiveSum +=
        static_cast<std::uint64_t>(intRegs.liveRegs());
    _stats.rfIntPoweredBankCycles +=
        static_cast<std::uint64_t>(intRegs.poweredBanks());
    _stats.rfIntBankCycles +=
        static_cast<std::uint64_t>(intRegs.numBanks());
    _stats.rfFpLiveSum +=
        static_cast<std::uint64_t>(fpRegs.liveRegs());
    _stats.rfFpPoweredBankCycles +=
        static_cast<std::uint64_t>(fpRegs.poweredBanks());
    _stats.rfFpBankCycles +=
        static_cast<std::uint64_t>(fpRegs.numBanks());
    _stats.cycles++;

    if (ctrl != nullptr) {
        signals.iqValid = iq.validCount();
        ctrl->tick(signals);
    }
    now++;
}

std::uint64_t
Core::run(std::uint64_t maxInsts)
{
    const std::uint64_t start = _stats.committed;
    std::uint64_t lastCommitted = start;
    std::uint64_t lastProgress = now;
    while (!coreHalted && _stats.committed - start < maxInsts) {
        tick();
        if (_stats.committed != lastCommitted) {
            lastCommitted = _stats.committed;
            lastProgress = now;
        }
        SIQ_ASSERT(now - lastProgress < 200000,
                   "no commit progress for 200k cycles: deadlock? "
                   "cycle=", now, " committed=", _stats.committed);
    }
    return _stats.committed - start;
}

void
Core::resetStats()
{
    _stats.reset();
    iq.events.reset();
    mem.resetStats();
    _bpred.resetStats();
}

} // namespace siq
