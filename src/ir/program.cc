#include "ir/program.hh"

#include <algorithm>

#include "common/logging.hh"

namespace siq
{

/**
 * The initial data memory of a program, one entry per page. A null
 * entry is the shared zero page. Pages are shared with every image
 * cloned from this one, so a page is written in place only while its
 * use count is 1.
 */
struct MemImage
{
    std::vector<std::shared_ptr<std::int64_t[]>> pages;
};

namespace
{

/** The one process-wide page of zeros: every page never given a
 *  nonzero word, in every program, reads through it. */
constexpr std::int64_t zeroPage[memPageWords] = {};

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

void
Program::initWord(std::int64_t wordAddr, std::int64_t value)
{
    SIQ_ASSERT(memWords > 0, "zero-size memory");
    SIQ_ASSERT(memImage == nullptr || memImage->pages.size() == memPages(),
               "program ", name, ": memWords changed after initWord");
    const std::uint64_t w = wrapWordAddr(wordAddr, memWords);
    const std::uint64_t p = w >> memPageShift;
    if (value == 0 && (memImage == nullptr || memImage->pages[p] == nullptr))
        return; // already zero

    // write in place only while no other program shares the image
    if (memImage == nullptr || memImage.use_count() > 1) {
        auto image = memImage == nullptr
                         ? std::make_shared<MemImage>()
                         : std::make_shared<MemImage>(*memImage);
        image->pages.resize(memPages());
        memImage = std::move(image);
    }
    // every image is created non-const just above
    auto &page = const_cast<MemImage &>(*memImage).pages[p];
    if (page == nullptr || page.use_count() > 1) {
        auto fresh = std::make_shared_for_overwrite<std::int64_t[]>(
            memPageWords);
        std::copy_n(page == nullptr ? zeroPage : page.get(), memPageWords,
                    fresh.get());
        page = std::move(fresh);
    }
    page[w & (memPageWords - 1)] = value;
}

const std::int64_t *
Program::initialPage(std::uint64_t p) const
{
    SIQ_ASSERT(p < memPages(), "page ", p, " past the end of memory");
    if (memImage == nullptr)
        return zeroPage;
    SIQ_ASSERT(memImage->pages.size() == memPages(),
               "program ", name, ": memWords changed after initWord");
    const auto &page = memImage->pages[p];
    return page == nullptr ? zeroPage : page.get();
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
