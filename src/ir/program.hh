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
#include <utility>
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

/** A program's shared initial memory image (defined in program.cc). */
class MemImage;

/** A whole program plus its initial data memory image. */
struct Program
{
    std::string name;
    std::vector<Procedure> procs;
    int entryProc = 0;
    /** Data memory size in 8-byte words; addresses wrap modulo this. */
    std::uint64_t memWords = 1 << 16;
    /** Sparse initial memory image applied before execution. */
    std::vector<std::pair<std::uint64_t, std::int64_t>> memInit;

    /**
     * Assign PCs, build CFG successor/predecessor lists, attach the
     * (lazily built) memory image and validate structural invariants.
     * Must be called after construction and after any instruction
     * insertion (e.g. hint NOOPs).
     */
    void finalize();

    /**
     * memInit applied to memWords zeroed words, built on first use and
     * shared with every copy of this program whose memory is unchanged
     * (hint annotation copies a program and re-finalizes it, but never
     * touches data memory, so raw and annotated programs share one
     * image). Requires finalize().
     */
    const std::vector<std::int64_t> &initialMemory() const;

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
