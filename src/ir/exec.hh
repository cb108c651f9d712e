/**
 * @file
 * Functional interpreter for siqsim programs.
 *
 * The cycle-level core uses an execute-at-fetch model: every fetched
 * instruction is stepped through this interpreter immediately, so
 * values, memory addresses and branch outcomes are known at fetch and
 * identical under every timing configuration. Tests assert that
 * property.
 *
 * Data memory is copy-on-write over the program's shared initial
 * image (Program::initialMemory()): a context starts with per-page
 * read pointers into the image and copies a page on its first store,
 * so constructing a context costs a page table, not a memory image.
 */

#ifndef SIQ_IR_EXEC_HH
#define SIQ_IR_EXEC_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "ir/program.hh"

namespace siq
{

/** Everything the timing model needs to know about one executed inst. */
struct StepResult
{
    const StaticInst *inst = nullptr;
    /** Location of the instruction (a call's return site is the
     *  fallthrough of this block). */
    int proc = -1;
    int block = -1;
    bool taken = false;        ///< conditional branch outcome
    std::uint64_t memAddr = 0; ///< word address for loads/stores
    bool halted = false;       ///< program finished at this step
};

/** Architectural state plus an instruction-at-a-time interpreter. */
class ExecContext
{
  public:
    explicit ExecContext(const Program &prog);

    /** The context keeps a reference: the program must outlive it. */
    explicit ExecContext(Program &&) = delete;

    /** Execute the next instruction in program order. */
    StepResult step();

    /**
     * The instruction step() would execute next, without executing
     * it. Only valid while !halted(); the fetch stage uses it to
     * read the next PC without re-resolving (proc, block, instIdx)
     * through three vector indirections.
     */
    const StaticInst &
    peek() const
    {
        return curBlk->insts[static_cast<std::size_t>(instIdx)];
    }

    bool halted() const { return _halted; }
    std::uint64_t instsExecuted() const { return _instsExecuted; }

    /// @name Observation hooks for tests.
    /// @{
    std::int64_t intReg(int r) const { return iregs[r]; }

    /** Read an FP register by unified or class-local index. */
    double
    fpReg(int r) const
    {
        return fregs[static_cast<std::size_t>(
            r >= fpRegBase ? r - fpRegBase : r)];
    }
    std::int64_t readMem(std::uint64_t wordAddr) const;
    /** Current position (proc, block, instIdx). */
    int curProc() const { return proc; }
    int curBlock() const { return block; }
    int curInst() const { return instIdx; }
    std::uint64_t callDepth() const { return stack.size(); }
    /// @}

  private:
    struct Frame
    {
        int proc;
        int block;
        int instIdx;
    };

    /** Copy-on-write page size, in words (4 KiB pages). */
    static constexpr int pageShift = 9;
    static constexpr std::uint64_t pageWords = 1ull << pageShift;

    std::uint64_t wrap(std::int64_t wordAddr) const;

    std::int64_t
    load(std::uint64_t wordAddr) const
    {
        return pages[wordAddr >> pageShift][wordAddr & (pageWords - 1)];
    }

    void
    store(std::uint64_t wordAddr, std::int64_t value)
    {
        std::int64_t *page = owned[wordAddr >> pageShift].get();
        if (page == nullptr)
            page = copyPage(wordAddr >> pageShift);
        page[wordAddr & (pageWords - 1)] = value;
    }

    /** Give page @p p a private copy (first store to it). */
    std::int64_t *copyPage(std::uint64_t p);

    void advance();
    /** Skip empty blocks (fallthrough-only joins) and detect halt. */
    void normalize();

    const Program &prog;
    /** Cache of &prog.procs[proc].blocks[block], refreshed by
     *  normalize() — the hot path reads the current block through
     *  this instead of two vector indirections per step. Stale (and
     *  unused) once halted. */
    const BasicBlock *curBlk = nullptr;
    std::array<std::int64_t, numIntArchRegs> iregs{};
    std::array<double, numFpArchRegs> fregs{};
    /** Read pointer per page: into the shared image until the page's
     *  first store, then into its private copy in `owned`. */
    std::vector<const std::int64_t *> pages;
    std::vector<std::unique_ptr<std::int64_t[]>> owned;
    std::vector<Frame> stack;
    int proc;
    int block = 0;
    int instIdx = 0;
    bool _halted = false;
    std::uint64_t _instsExecuted = 0;
};

} // namespace siq

#endif // SIQ_IR_EXEC_HH
