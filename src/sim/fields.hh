/**
 * @file
 * Every counter of the measurement structs, listed once, so the
 * JSON/CSV writers and readers, the determinism comparison
 * (identicalMeasurement) and the replication aggregates
 * (CellAggregate) can never drift apart field-wise — and every field
 * of the experiment config structs, listed once, so the spec writer
 * and reader (sim/report.cc) cannot either.
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

/**
 * @name Config schema.
 * One list per config struct, in spec-JSON key order; the member name
 * is the JSON key. A nested struct or array is one field whose value
 * is written through its own list. The spec writer and reader are
 * type-overloaded over these lists (sim/report.cc), so a field added
 * here serializes, reads back and round-trips with no other edit.
 * IF_SET fields are written only when they differ from their default
 * and are optional on read — schema evolution that keeps older specs'
 * bytes (specFrontEnd: oracle-mode specs and the determinism-pin
 * digest over them never carry the key).
 * @{
 */
#define SIQ_WORKLOAD_PARAMS_FIELDS(X) X(scale) X(repDivisor) X(seed)

#define SIQ_IQ_CONFIG_FIELDS(X) X(numEntries) X(bankSize)

#define SIQ_LSQ_CONFIG_FIELDS(X) X(numEntries)

#define SIQ_REGFILE_CONFIG_FIELDS(X) X(numPhys) X(numArch) X(bankSize)

#define SIQ_BPRED_CONFIG_FIELDS(X)                                       \
    X(gshareEntries) X(bimodalEntries) X(selectorEntries)                \
    X(btbEntries) X(btbAssoc) X(rasEntries)

#define SIQ_CACHE_CONFIG_FIELDS(X)                                       \
    X(name) X(sizeBytes) X(assoc) X(lineBytes) X(hitLatency)

#define SIQ_MEM_CONFIG_FIELDS(X) X(l1i) X(l1d) X(l2) X(memLatency)

#define SIQ_CORE_CONFIG_FIELDS(X, IF_SET)                                \
    X(fetchWidth) X(dispatchWidth) X(issueWidth) X(commitWidth)          \
    X(decodeDepth) X(fetchQueueSize) X(robSize) X(iq) X(lsq)             \
    X(intRegs) X(fpRegs) X(fuCounts) X(bpred) IF_SET(specFrontEnd)       \
    X(mem)

#define SIQ_ABELLA_CONFIG_FIELDS(X)                                      \
    X(minIq) X(robFloor) X(intervalCycles) X(slackPortions)              \
    X(stallFractionToGrow)

#define SIQ_FOLEGNANI_CONFIG_FIELDS(X)                                   \
    X(minSize) X(intervalCycles) X(contributionThreshold) X(expandPeriod)

#define SIQ_RUN_CONFIG_FIELDS(X)                                         \
    X(workload) X(warmupInsts) X(measureInsts) X(minHint)                \
    X(elideRedundant) X(unrollFactor) X(core) X(abella) X(folegnani)
/** @} */

#endif // SIQ_SIM_FIELDS_HH
