/**
 * @file
 * Workload entry points of the siqsim benchmark binary.
 */

#ifndef SIQB_MATRIX_HH
#define SIQB_MATRIX_HH

#include "sim/sweep.hh"
#include "util.hh"

namespace siqb
{

/** The matrix grid: every family × the six built-in techniques. */
siq::sim::SweepSpec matrixSpec(std::uint64_t seed, bool speculative,
                               bool tiny);

/** oracle-matrix (speculative = false) or speculative-matrix. */
void runMatrix(const Options &opts, bool speculative, Report &report,
               Tracer &tracer);

/** serve-mix: closed-loop clients against one in-process ServeEngine. */
void runServeMix(const Options &opts, Report &report, Tracer &tracer);

/** The serve generator's first @p n request specs for @p seed, one
 *  JSON document per line, then {"specs": n, "valid": v} where v
 *  counts those tryReadSpecJson accepts (self-test of the generator). */
void emitServeSpecs(std::uint64_t seed, int n, bool tiny);

} // namespace siqb

#endif // SIQB_MATRIX_HH
