#include "ir/exec.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace siq
{

namespace
{

// Integer ALU ops wrap (two's complement) like real hardware; signed
// overflow is UB in C++, so route the arithmetic through uint64_t.
// Several generators rely on wrapping (e.g. mcf's LCG pointer hash).
std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
}

std::int64_t
wrapSub(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                     static_cast<std::uint64_t>(b));
}

std::int64_t
wrapMul(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(b));
}

} // namespace

ExecContext::ExecContext(const Program &prog_)
    : prog(prog_), proc(prog_.entryProc)
{
    const std::int64_t *image = prog.initialMemory().data();
    const std::uint64_t npages =
        (prog.memWords + pageWords - 1) >> pageShift;
    pages.resize(npages);
    for (std::uint64_t p = 0; p < npages; p++)
        pages[p] = image + (p << pageShift);
    owned.resize(npages);
    normalize();
}

std::int64_t *
ExecContext::copyPage(std::uint64_t p)
{
    const std::uint64_t first = p << pageShift;
    const std::uint64_t n = std::min(pageWords, prog.memWords - first);
    owned[p] = std::make_unique_for_overwrite<std::int64_t[]>(pageWords);
    std::int64_t *page = owned[p].get();
    std::copy_n(pages[p], n, page);
    pages[p] = page;
    return page;
}

void
ExecContext::normalize()
{
    while (!_halted) {
        const BasicBlock &blk = prog.procs[proc].blocks[block];
        if (instIdx < static_cast<int>(blk.insts.size())) {
            curBlk = &blk;
            return;
        }
        if (blk.fallthrough >= 0) {
            block = blk.fallthrough;
            instIdx = 0;
        } else {
            _halted = true;
        }
    }
}

std::uint64_t
ExecContext::wrap(std::int64_t wordAddr) const
{
    // Addresses wrap modulo the memory size; keeps synthetic workloads
    // deterministic even when index arithmetic overshoots. In-range
    // addresses, nearly all of them, skip the division.
    if (static_cast<std::uint64_t>(wordAddr) < prog.memWords)
        return static_cast<std::uint64_t>(wordAddr);
    const auto size = static_cast<std::int64_t>(prog.memWords);
    std::int64_t m = wordAddr % size;
    if (m < 0)
        m += size;
    return static_cast<std::uint64_t>(m);
}

std::int64_t
ExecContext::readMem(std::uint64_t wordAddr) const
{
    return load(wrap(static_cast<std::int64_t>(wordAddr)));
}

void
ExecContext::advance()
{
    // next instruction in the same block; only a block end needs
    // normalize() to fall through (possibly across empty blocks)
    instIdx++;
    if (instIdx >= static_cast<int>(curBlk->insts.size()))
        normalize();
}

StepResult
ExecContext::step()
{
    SIQ_ASSERT(!_halted, "step() after halt");
    const BasicBlock &blk = *curBlk;
    SIQ_ASSERT(instIdx < static_cast<int>(blk.insts.size()),
               "pc past end of block");
    const StaticInst &si = blk.insts[instIdx];

    StepResult res;
    res.inst = &si;
    res.proc = proc;
    res.block = block;

    auto ir = [&](int r) -> std::int64_t {
        return r == zeroReg ? 0 : iregs[r];
    };
    auto fr = [&](int r) -> double { return fregs[r - fpRegBase]; };
    auto setIr = [&](int r, std::int64_t v) {
        if (r != zeroReg)
            iregs[r] = v;
    };
    auto setFr = [&](int r, double v) { fregs[r - fpRegBase] = v; };

    _instsExecuted++;

    switch (si.op) {
      case Opcode::Nop:
      case Opcode::Hint:
        break;
      case Opcode::MovImm:
        setIr(si.dst, si.imm);
        break;
      case Opcode::Add:
        setIr(si.dst, wrapAdd(ir(si.src1), ir(si.src2)));
        break;
      case Opcode::AddImm:
        setIr(si.dst, wrapAdd(ir(si.src1), si.imm));
        break;
      case Opcode::Sub:
        setIr(si.dst, wrapSub(ir(si.src1), ir(si.src2)));
        break;
      case Opcode::Mul:
        setIr(si.dst, wrapMul(ir(si.src1), ir(si.src2)));
        break;
      case Opcode::Div: {
        const std::int64_t d = ir(si.src2);
        // d == -1 would overflow on INT64_MIN / -1; negate via the
        // wrapping path instead
        setIr(si.dst, d == 0    ? 0
                      : d == -1 ? wrapSub(0, ir(si.src1))
                                : ir(si.src1) / d);
        break;
      }
      case Opcode::And:
        setIr(si.dst, ir(si.src1) & ir(si.src2));
        break;
      case Opcode::Or:
        setIr(si.dst, ir(si.src1) | ir(si.src2));
        break;
      case Opcode::Xor:
        setIr(si.dst, ir(si.src1) ^ ir(si.src2));
        break;
      case Opcode::Shl:
        setIr(si.dst, ir(si.src1) << (si.imm & 63));
        break;
      case Opcode::Shr:
        setIr(si.dst, static_cast<std::int64_t>(
            static_cast<std::uint64_t>(ir(si.src1)) >> (si.imm & 63)));
        break;
      case Opcode::Slt:
        setIr(si.dst, ir(si.src1) < ir(si.src2) ? 1 : 0);
        break;
      case Opcode::FMovImm:
        setFr(si.dst, static_cast<double>(si.imm));
        break;
      case Opcode::FAdd:
        setFr(si.dst, fr(si.src1) + fr(si.src2));
        break;
      case Opcode::FMul:
        setFr(si.dst, fr(si.src1) * fr(si.src2));
        break;
      case Opcode::FDiv: {
        const double d = fr(si.src2);
        setFr(si.dst, d == 0.0 ? 0.0 : fr(si.src1) / d);
        break;
      }
      case Opcode::Load: {
        res.memAddr = wrap(wrapAdd(ir(si.src1), si.imm));
        setIr(si.dst, load(res.memAddr));
        break;
      }
      case Opcode::Store: {
        res.memAddr = wrap(wrapAdd(ir(si.src1), si.imm));
        store(res.memAddr, ir(si.src2));
        break;
      }
      case Opcode::FLoad: {
        res.memAddr = wrap(wrapAdd(ir(si.src1), si.imm));
        setFr(si.dst, std::bit_cast<double>(load(res.memAddr)));
        break;
      }
      case Opcode::FStore: {
        res.memAddr = wrap(wrapAdd(ir(si.src1), si.imm));
        store(res.memAddr, std::bit_cast<std::int64_t>(fr(si.src2)));
        break;
      }
      case Opcode::Beq:
        res.taken = ir(si.src1) == ir(si.src2);
        break;
      case Opcode::Bne:
        res.taken = ir(si.src1) != ir(si.src2);
        break;
      case Opcode::Blt:
        res.taken = ir(si.src1) < ir(si.src2);
        break;
      case Opcode::Bge:
        res.taken = ir(si.src1) >= ir(si.src2);
        break;
      case Opcode::Jump:
      case Opcode::IJump:
      case Opcode::Call:
      case Opcode::Ret:
        break; // handled below
      case Opcode::Halt:
        _halted = true;
        res.halted = true;
        return res;
      default:
        panic("unhandled opcode in exec");
    }

    // control resolution
    const auto &t = si.traits();
    if (t.isBranch && res.taken) {
        block = si.target;
        instIdx = 0;
    } else if (si.op == Opcode::Jump) {
        res.taken = true;
        block = si.target;
        instIdx = 0;
    } else if (si.op == Opcode::IJump) {
        res.taken = true;
        const auto &targets = blk.indirectTargets;
        const auto n = static_cast<std::int64_t>(targets.size());
        std::int64_t idx = ir(si.src1) % n;
        if (idx < 0)
            idx += n;
        block = targets[static_cast<std::size_t>(idx)];
        instIdx = 0;
    } else if (si.op == Opcode::Call) {
        res.taken = true;
        SIQ_ASSERT(blk.fallthrough >= 0, "call without return point");
        stack.push_back({proc, blk.fallthrough, 0});
        proc = si.target;
        block = 0;
        instIdx = 0;
    } else if (si.op == Opcode::Ret) {
        res.taken = true;
        if (stack.empty()) {
            _halted = true;
            res.halted = true;
            return res;
        }
        const Frame f = stack.back();
        stack.pop_back();
        proc = f.proc;
        block = f.block;
        instIdx = f.instIdx;
    } else {
        advance();
        res.halted = _halted;
        return res;
    }

    normalize();
    res.halted = _halted;
    return res;
}

} // namespace siq
