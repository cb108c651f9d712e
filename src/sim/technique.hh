/**
 * @file
 * The technique table: the six ways the paper drives the machine —
 * the do-nothing baseline, the three compiler hint schemes and the
 * two hardware resizers — each a named, immutable entry mapping to
 * the two things a run needs: an optional compiler configuration (how
 * the program is annotated before simulation) and an optional
 * adaptive-resizer factory (the IqLimitController handed to the core).
 *
 * The table is fixed at compile time (technique.cc). A variant of a
 * technique is not a new entry but a different RunConfig: the hint
 * floor, redundant-hint elision, unrolling and every machine and
 * resizer knob are serialized config fields, so an ablation is a
 * plain spec that travels through `siqsim run` and serve. runOne and
 * the sweep engine both resolve names here, so a technique behaves
 * identically under serial and threaded execution.
 */

#ifndef SIQ_SIM_TECHNIQUE_HH
#define SIQ_SIM_TECHNIQUE_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cpu/resize.hh"
#include "sim/simulator.hh"

namespace siq::sim
{

/** One technique-table entry. */
struct TechniqueDef
{
    /** Table key; also what RunResult::technique reports. */
    std::string name;
    /** One-line description for listings. */
    std::string summary;
    /**
     * Produce the compiler configuration for a run, or nullopt when
     * the program runs unannotated. Null == no compiler.
     */
    std::optional<compiler::CompilerConfig> (*compilerConfig)(
        const RunConfig &) = nullptr;
    /**
     * Produce the hardware resize controller for a run. Null (or a
     * factory returning nullptr) == no controller.
     */
    std::unique_ptr<IqLimitController> (*controller)(
        const RunConfig &) = nullptr;
};

/** Table lookup by name; nullptr when absent. */
const TechniqueDef *findTechnique(const std::string &name);

/** All technique names, in table order (baseline first). */
std::vector<std::string> techniqueNames();

} // namespace siq::sim

#endif // SIQ_SIM_TECHNIQUE_HH
