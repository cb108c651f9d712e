/**
 * @file
 * Every counter of the measurement structs, listed once, so the
 * JSON/CSV writers and readers, the determinism comparison
 * (identicalMeasurement) and the replication aggregates
 * (CellAggregate) can never drift apart field-wise.
 */

#ifndef SIQ_SIM_FIELDS_HH
#define SIQ_SIM_FIELDS_HH

#define SIQ_CORE_STATS_FIELDS(X)                                         \
    X(cycles) X(committed) X(fetched) X(dispatched) X(issued)            \
    X(hintsApplied) X(branchMispredicts) X(frontRedirects)               \
    X(condBranches) X(dispatchStallRob) X(dispatchStallIqFull)           \
    X(dispatchStallRange) X(dispatchStallLimit) X(dispatchStallRegs)     \
    X(dispatchStallLsq) X(loads) X(stores) X(loadForwards)               \
    X(rfIntReads) X(rfIntWrites) X(rfFpReads) X(rfFpWrites)              \
    X(rfIntLiveSum) X(rfIntPoweredBankCycles) X(rfIntBankCycles)         \
    X(rfFpLiveSum) X(rfFpPoweredBankCycles) X(rfFpBankCycles)

/**
 * Counters that are only nonzero when the speculative front end is
 * enabled (CoreConfig::specFrontEnd). They live in CoreStats like any
 * other counter — identicalMeasurement and replication aggregation
 * cover them automatically — but the JSON/CSV writers emit them
 * through this separate list so oracle-mode exports (all-zero spec
 * block, elided) keep their historical bytes and the determinism-pin
 * digest never moves.
 */
#define SIQ_CORE_SPEC_STATS_FIELDS(X)                                    \
    X(wrongPathFetched) X(wrongPathDispatched) X(wrongPathIssued)        \
    X(squashes) X(squashCycles) X(squashedInsts)

#define SIQ_IQ_EVENT_FIELDS(X)                                           \
    X(broadcasts) X(cmpGated) X(cmpPowered) X(cmpConventional)           \
    X(dispatchWrites) X(issueReads) X(poweredBankCycles)                 \
    X(totalBankCycles) X(occupancySum) X(cycles)

#define SIQ_COMPILE_STATS_FIELDS(X)                                      \
    X(proceduresAnalyzed) X(blocksAnalyzed) X(loopsAnalyzed)             \
    X(hintNoopsInserted) X(tagsApplied) X(hintsElided)

/**
 * Per-cell wall-clock timing fields of RunResult, one per build
 * phase: workload synthesis and compiler annotation. They are
 * metadata, not measurements — canonicalize() zeroes them and
 * identicalMeasurement() ignores them — but the JSON and CSV writers
 * export them, so cache reuse (0 on a program-cache hit) is visible
 * in reports.
 */
#define SIQ_RUN_TIMING_FIELDS(X)                                         \
    X(generateSeconds) X(compileSeconds)

#endif // SIQ_SIM_FIELDS_HH
