#include "ir/program.hh"

#include <algorithm>
#include <mutex>

#include "common/logging.hh"

namespace siq
{

/**
 * The dense initial data-memory image of a program: memInit applied to
 * zeroed memory. Built once, on the first ExecContext that needs it,
 * and shared read-only by every context (and by every copy of the
 * program that keeps the same memory) for the program's lifetime.
 */
class MemImage
{
  public:
    /** @param key fingerprint of the memory it images (memWords and
     *  memInit), so a re-finalized program keeps the image only while
     *  its memory is unchanged */
    explicit MemImage(std::uint64_t key) : _key(key) {}

    std::uint64_t key() const { return _key; }

    /** The image of @p memWords words with @p init applied (addresses
     *  wrap modulo memWords); built on the first call, thread-safe. */
    const std::vector<std::int64_t> &
    words(std::uint64_t memWords,
          const std::vector<std::pair<std::uint64_t, std::int64_t>> &init)
        const;

  private:
    std::uint64_t _key;
    mutable std::once_flag built;
    mutable std::vector<std::int64_t> dense;
};

namespace
{

/** Fingerprint of the data memory a MemImage images (a word-wise
 *  multiply-xorshift hash: cheap enough to run on every finalize). */
std::uint64_t
memoryKey(const Program &prog)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 29;
    };
    mix(prog.memWords);
    mix(prog.memInit.size());
    for (const auto &[addr, value] : prog.memInit) {
        mix(addr);
        mix(static_cast<std::uint64_t>(value));
    }
    return h;
}

} // namespace

std::uint64_t
blockStartPc(const Program &prog, int proc, int block)
{
    // resolve through empty fallthrough blocks exactly like the
    // functional normalize() so RAS predictions compare equal
    int b = block;
    while (true) {
        const BasicBlock &blk = prog.procs[proc].blocks[b];
        if (!blk.insts.empty())
            return blk.insts.front().pc;
        if (blk.fallthrough < 0)
            return 0;
        b = blk.fallthrough;
    }
}

const std::vector<std::int64_t> &
MemImage::words(
    std::uint64_t memWords,
    const std::vector<std::pair<std::uint64_t, std::int64_t>> &init) const
{
    std::call_once(built, [&] {
        dense.assign(memWords, 0);
        // signed wrap, exactly as the interpreter wraps addresses
        const auto size = static_cast<std::int64_t>(memWords);
        for (const auto &[addr, value] : init) {
            std::int64_t m = static_cast<std::int64_t>(addr) % size;
            if (m < 0)
                m += size;
            dense[static_cast<std::size_t>(m)] = value;
        }
    });
    return dense;
}

const std::vector<std::int64_t> &
Program::initialMemory() const
{
    SIQ_ASSERT(memImage != nullptr, "program ", name, " not finalized");
    return memImage->words(memWords, memInit);
}

void
Program::finalize()
{
    std::uint64_t pc = 0x1000;
    for (auto &proc : procs) {
        for (auto &block : proc.blocks) {
            block.startPc = pc;
            for (auto &inst : block.insts) {
                inst.pc = pc;
                pc += 4;
            }
            block.succs.clear();
            block.preds.clear();
        }
        // page-align procedures so PCs stay distinctive
        pc = (pc + 0xFFF) & ~0xFFFull;
    }

    // keep a shared image across re-finalization (hint insertion)
    // while the memory it images is unchanged
    const std::uint64_t key = memoryKey(*this);
    if (memImage == nullptr || memImage->key() != key)
        memImage = std::make_shared<const MemImage>(key);

    for (auto &proc : procs) {
        const int nblocks = static_cast<int>(proc.blocks.size());
        auto addEdge = [&](int from, int to) {
            SIQ_ASSERT(to >= 0 && to < nblocks,
                       "bad CFG edge target ", to, " in proc ",
                       proc.name);
            auto &s = proc.blocks[from].succs;
            if (std::find(s.begin(), s.end(), to) == s.end())
                s.push_back(to);
            auto &p = proc.blocks[to].preds;
            if (std::find(p.begin(), p.end(), from) == p.end())
                p.push_back(from);
        };
        for (auto &block : proc.blocks) {
            const StaticInst *term = block.terminator();
            if (term == nullptr) {
                if (block.fallthrough >= 0)
                    addEdge(block.id, block.fallthrough);
                continue;
            }
            const auto &t = term->traits();
            if (t.isBranch) {
                addEdge(block.id, term->target);
                SIQ_ASSERT(block.fallthrough >= 0,
                           "branch block needs fallthrough");
                addEdge(block.id, block.fallthrough);
            } else if (term->op == Opcode::Jump) {
                addEdge(block.id, term->target);
            } else if (term->op == Opcode::IJump) {
                SIQ_ASSERT(!block.indirectTargets.empty(),
                           "IJump without a target table");
                for (int tgt : block.indirectTargets)
                    addEdge(block.id, tgt);
            } else if (t.isCall) {
                // the call returns to the fallthrough block; model the
                // intra-procedural edge so DAG analysis sees it
                SIQ_ASSERT(block.fallthrough >= 0,
                           "call block needs fallthrough");
                addEdge(block.id, block.fallthrough);
            }
            // Ret and Halt have no intra-procedural successor.
        }
    }

    validate();
}

void
Program::validate() const
{
    SIQ_ASSERT(!procs.empty(), "program has no procedures");
    SIQ_ASSERT(entryProc >= 0 &&
               entryProc < static_cast<int>(procs.size()),
               "bad entry procedure");
    SIQ_ASSERT(memWords > 0, "zero-size memory");
    for (const auto &proc : procs) {
        SIQ_ASSERT(!proc.blocks.empty(),
                   "procedure ", proc.name, " has no blocks");
        for (std::size_t i = 0; i < proc.blocks.size(); i++) {
            const auto &block = proc.blocks[i];
            SIQ_ASSERT(block.id == static_cast<int>(i),
                       "block id mismatch in ", proc.name);
            for (std::size_t k = 0; k + 1 < block.insts.size(); k++) {
                SIQ_ASSERT(!isControl(block.insts[k].op) &&
                           !block.insts[k].traits().isHalt,
                           "control transfer mid-block in ",
                           proc.name, " block ", block.id);
            }
            const StaticInst *term = block.terminator();
            if (term && term->traits().isCall) {
                SIQ_ASSERT(term->target >= 0 && term->target <
                           static_cast<int>(procs.size()),
                           "call to unknown procedure");
            }
        }
    }
}

} // namespace siq
