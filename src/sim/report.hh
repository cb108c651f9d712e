/**
 * @file
 * Structured (de)serialization for the experiment engine: JSON
 * emitters and readers for RunResult matrices, declarative SweepSpec
 * grids and per-cell checkpoint payloads, plus CSV emitters for
 * matrices and the paper's PowerComparison savings — so figure data,
 * experiment specs and partial-run state can all leave the process
 * machine-readably.
 *
 * Round-trip guarantee: integer counters are emitted verbatim and
 * doubles with 17 significant digits, so writeJson → readJson (and
 * writeSpecJson → readSpecJson) reproduces every field bit-exactly.
 */

#ifndef SIQ_SIM_REPORT_HH
#define SIQ_SIM_REPORT_HH

#include <iosfwd>
#include <string>

#include "common/json.hh"
#include "common/result.hh"
#include "sim/fields.hh"
#include "sim/sweep.hh"

namespace siq::sim
{

/// @name JSON.
/// @{

/** Serialize one run (a flat JSON object). */
std::string toJson(const RunResult &result);

/** Serialize the savings of one technique run vs its baseline. */
std::string toJson(const PowerComparison &cmp);

/** Serialize a whole sweep matrix. Replicated sweeps (seeds > 1)
 *  additionally carry "seeds" and a per-cell "aggregates" array
 *  (n/mean/stddev/ci95 per metric); seeds == 1 output is
 *  byte-identical to the unreplicated schema. */
void writeJson(std::ostream &os, const SweepResult &result);

/** Parse writeJson output back into a SweepResult (cache counters
 *  and wall-clock metadata included). Fatal on malformed input. */
SweepResult readJson(std::istream &is);

/// @}

/// @name CSV.
/// @{

/** One row per cell, every counter a column; header row first.
 *  Replicated sweeps grow an `n` column plus `<metric>_mean`,
 *  `<metric>_stddev` and `<metric>_ci95` columns per metric;
 *  seeds == 1 output keeps the unreplicated column set. */
void writeCsv(std::ostream &os, const SweepResult &result);

/**
 * Per-cell power savings vs the named baseline technique (which must
 * be part of the sweep): the figure 8-12 numbers as CSV.
 */
void writePowerCsv(std::ostream &os, const SweepResult &result,
                   const std::string &baselineTechnique = "baseline",
                   const power::IqPowerParams &iqParams = {},
                   const power::RfPowerParams &rfParams = {});

/// @}

/// @name Sweep specifications.
/// @{

/**
 * Serialize a declarative SweepSpec: the grid axes (benchmarks ×
 * techniques), jobs, seeds, and the full base RunConfig — workload
 * parameters, instruction budgets, compiler knobs, the complete core
 * machine configuration (IQ/LSQ/register files/FUs/branch predictor/
 * memory hierarchy), and both adaptive-comparator configs.
 *
 * Each benchmark-axis entry is emitted as a structured WorkloadSpec
 * object — `{"family": "phased", "params": {"period": 60000}}`, the
 * "params" key elided for parameterless workloads — validated and
 * canonicalized through the family registry (workloads/family.hh,
 * DESIGN.md §10). readSpecJson also accepts plain string entries
 * ("phased:period=60000") in hand-written specs.
 *
 * Every SweepSpec field serializes; the config structs are written
 * and read through their field lists in sim/fields.hh.
 */
void writeSpecJson(std::ostream &os, const SweepSpec &spec);

/** writeSpecJson into a string (the canonical spec identity used to
 *  verify resume/merge compatibility — DESIGN.md §8.2). */
std::string toJson(const SweepSpec &spec);

/** The spec as a JSON tree with every config field present, IF_SET
 *  ones included (writeSpecJson elides them at their defaults): the
 *  tree a field edit (`siqsim spec --set`) addresses before
 *  specFromJson reads it back. */
json::Value specTree(const SweepSpec &spec);

/** Parse writeSpecJson output. Every field round-trips bit-exactly.
 *  Fatal on malformed input, unknown technique names, or a base
 *  config that fails validate(). */
SweepSpec readSpecJson(std::istream &is);

/**
 * Reject a config the core could not be built from or run: every
 * pipeline width >= 1, the geometry preconditions the ROB, fetch
 * queue, IQ, register files, LSQ, caches and BTB constructors assert
 * (banks tile the IQ and register files, power-of-two cache lines and
 * sets, ...), non-empty predictor tables and FU pools, latencies of
 * at least one cycle (a non-negative decode depth), and compiler
 * knobs in the ranges the pass assumes (minHint within the IQ,
 * unrollFactor within compiler::maxLoopCopies). fatal() naming the
 * field path ("base.core.robSize").
 * The spec readers call it, so an invalid spec fails where it enters
 * — `siqsim run` exits 1 and serve answers with an error record —
 * instead of aborting in a constructor.
 */
void validate(const RunConfig &cfg);

/** Build a SweepSpec from an already-parsed JSON tree (the serve
 *  daemon embeds specs inside request envelopes). Fatal on schema
 *  violations; see trySpecFromJson for the recoverable form. */
SweepSpec specFromJson(const json::Value &root);

/** Recoverable specFromJson: schema violations become an error
 *  Result instead of unwinding past the caller. */
Result<SweepSpec> trySpecFromJson(const json::Value &root);

/** Recoverable readSpecJson over an in-memory document: malformed
 *  JSON, schema violations, unknown techniques, and bad workload
 *  specs all come back as an error Result. The entry point for
 *  untrusted per-request bytes (sim/serve.cc). */
Result<SweepSpec> tryReadSpecJson(const std::string &text);

/// @}

/// @name Per-cell checkpoints.
/// @{

/**
 * The payload of one checkpoint file: a finished cell identified by
 * its stable technique-major index, its replica-0 result, and — for
 * replicated sweeps — its replica aggregate (DESIGN.md §8.2).
 */
struct CellCheckpoint
{
    /** Technique-major cell index within the spec's matrix. */
    std::size_t index = 0;
    /** Replicas this cell ran (1 = unreplicated, no aggregate). */
    int seeds = 1;
    RunResult cell;
    /** Only meaningful when seeds > 1. */
    CellAggregate aggregate;
};

/** Serialize one checkpoint payload (a single JSON object). */
std::string toJson(const CellCheckpoint &ckpt);

/** Parse toJson(CellCheckpoint) output; fatal on malformed input. */
CellCheckpoint cellCheckpointFromJson(const std::string &text);

/** Serialize cache counters (the `siqsim run` cache.json payload). */
std::string toJson(const SweepCacheStats &cache);

/** Parse toJson(SweepCacheStats) output; fatal on malformed input.
 *  Keys it does not know (older payloads' trace counters) are
 *  ignored. */
SweepCacheStats cacheStatsFromJson(const std::string &text);

/// @}

/**
 * Zero every scheduling / wall-clock / cache-accounting field of a
 * result (jobsUsed, wallSeconds, cache counters, per-cell
 * generateSeconds, compileSeconds and compile.seconds),
 * leaving only measurements.
 * Two runs of the same spec — serial or threaded, sharded or not,
 * resumed or not — canonicalize to byte-identical exports; this is
 * the form `siqsim run` and `siqsim merge` emit (DESIGN.md §8.3).
 */
void canonicalize(SweepResult &result);

/** Zero one cell's timing fields (the per-cell piece of the above;
 *  the serve daemon canonicalizes cells before streaming them so
 *  deduped fan-out is byte-identical for every receiver). */
void canonicalize(RunResult &cell);

} // namespace siq::sim

#endif // SIQ_SIM_REPORT_HH
