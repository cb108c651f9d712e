/**
 * @file
 * Program representation: procedures of basic blocks of StaticInsts.
 *
 * Control-flow conventions:
 *  - only the last instruction of a block may transfer control
 *    (conditional branch, jump, indirect jump, call, ret, halt);
 *  - a conditional branch falls through to @c fallthrough when not
 *    taken and goes to its @c target block when taken;
 *  - a block whose last instruction is not a control transfer falls
 *    through to @c fallthrough;
 *  - calls terminate a block (as in the paper, where "the first block
 *    in a DAG is ... a block immediately following a function call");
 *    execution resumes at the caller block's @c fallthrough;
 *  - an IJump selects among @c indirectTargets by register value.
 */

#ifndef SIQ_IR_PROGRAM_HH
#define SIQ_IR_PROGRAM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/static_inst.hh"

namespace siq
{

/** A straight-line run of instructions with single entry and exit. */
struct BasicBlock
{
    int id = -1;
    std::vector<StaticInst> insts;
    int fallthrough = -1; ///< successor when control falls through
    std::vector<int> indirectTargets; ///< IJump jump table (block ids)
    std::vector<int> succs; ///< filled by Program::finalize()
    std::vector<int> preds; ///< filled by Program::finalize()
    std::uint64_t startPc = 0;

    bool empty() const { return insts.empty(); }

    const StaticInst *
    terminator() const
    {
        if (insts.empty())
            return nullptr;
        const StaticInst &last = insts.back();
        return isControl(last.op) || last.traits().isHalt ? &last
                                                          : nullptr;
    }
};

/** A procedure: a list of blocks; block 0 is the entry. */
struct Procedure
{
    int id = -1;
    std::string name;
    std::vector<BasicBlock> blocks;
    bool isLibrary = false; ///< paper §4.4: library calls get max IQ

    std::size_t
    instCount() const
    {
        std::size_t n = 0;
        for (const auto &b : blocks)
            n += b.insts.size();
        return n;
    }
};

/** Data memory page size, in words (4 KiB pages): the unit the
 *  initial image shares and the interpreter copies on write. */
inline constexpr int memPageShift = 9;
inline constexpr std::uint64_t memPageWords = 1ull << memPageShift;

/**
 * @p wordAddr wrapped modulo @p memWords (signed: -1 is the last
 * word). Keeps synthetic workloads deterministic even when index
 * arithmetic overshoots; in-range addresses, nearly all of them, skip
 * the division.
 */
inline std::uint64_t
wrapWordAddr(std::int64_t wordAddr, std::uint64_t memWords)
{
    if (static_cast<std::uint64_t>(wordAddr) < memWords)
        return static_cast<std::uint64_t>(wordAddr);
    const auto size = static_cast<std::int64_t>(memWords);
    std::int64_t m = wordAddr % size;
    if (m < 0)
        m += size;
    return static_cast<std::uint64_t>(m);
}

/** A program's paged initial data memory (defined in program.cc). */
struct MemImage;

/** A whole program plus its initial data memory image. */
struct Program
{
    std::string name;
    std::vector<Procedure> procs;
    int entryProc = 0;
    /** Data memory size in 8-byte words; addresses wrap modulo this.
     *  Fixed before the first initWord(). */
    std::uint64_t memWords = 1 << 16;

    /**
     * Assign PCs, build CFG successor/predecessor lists and validate
     * structural invariants. Must be called after construction and
     * after any instruction insertion (e.g. hint NOOPs). Data memory
     * is not touched.
     */
    void finalize();

    /**
     * Set the initial value of word @p wordAddr, wrapped exactly as
     * the interpreter wraps addresses; the last write wins. Copies of
     * a program share its image, so the first write after a copy
     * clones the page table and that one page; writing 0 to a page
     * that holds only zeros allocates nothing.
     */
    void initWord(std::int64_t wordAddr, std::int64_t value);

    /**
     * The initial contents of page @p p (words [p << memPageShift,
     * ...) up to memWords): shared by every copy of this program, and
     * one process-wide zero page for every page never given a nonzero
     * word. Read-only; valid until the program is next written by
     * initWord() or destroyed.
     */
    const std::int64_t *initialPage(std::uint64_t p) const;

    /** Pages of data memory (the last one may be partial). */
    std::uint64_t
    memPages() const
    {
        return (memWords + memPageWords - 1) >> memPageShift;
    }

    std::size_t
    instCount() const
    {
        std::size_t n = 0;
        for (const auto &p : procs)
            n += p.instCount();
        return n;
    }

  private:
    void validate() const;

    /** Null until the first nonzero initWord(); never written while
     *  another program shares it. */
    std::shared_ptr<const MemImage> memImage;
};

/**
 * PC of the first instruction executed when control enters
 * (@p proc, @p block), resolving through empty fallthrough-only
 * blocks exactly like the functional interpreter's normalize(); 0
 * when the chain ends without an instruction. The core's return
 * address stack and its wrong-path fetch resolve every target PC
 * through it.
 */
std::uint64_t blockStartPc(const Program &prog, int proc, int block);

} // namespace siq

#endif // SIQ_IR_PROGRAM_HH
