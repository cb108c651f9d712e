/**
 * @file
 * `siqsim table NAME DIR...`: the paper's figures and tables rendered
 * from complete run directories (DESIGN.md §5). Each figure is data —
 * a checked-in spec under specs/ run with `siqsim run --ckpt` — plus
 * one entry in the table of definitions in tables.cc, which holds
 * every table's columns and the paper's reference numbers.
 */

#ifndef SIQ_CLI_TABLES_HH
#define SIQ_CLI_TABLES_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace siq::cli
{

/**
 * Render table @p name from the run directories @p dirs (each written
 * by `siqsim run --ckpt`, every cell checkpointed). Fatal — naming the
 * offender — on an unknown table, a wrong number of directories, an
 * incomplete directory, a run lacking one of the table's techniques,
 * or runs that sweep different workloads.
 */
void printTable(const std::string &name,
                const std::vector<std::string> &dirs, std::ostream &os);

/** "name — title" lines for every table, for `siqsim --help`. */
std::string tableList();

} // namespace siq::cli

#endif // SIQ_CLI_TABLES_HH
