/**
 * @file
 * Range sweep: force the compiler to believe the IQ has only R
 * entries (so every emitted hint is <= R) and measure the IPC cost on
 * the real 80-entry machine. This exposes each workload's sensitivity
 * to window size — the curve the paper's technique exploits (flat
 * curves mean free power savings; steep curves need accurate hints).
 *
 * The forced window is a compiler-only knob that no RunConfig field
 * carries, so this example drives the layers directly: it generates
 * each benchmark once, annotates a copy per R with its own
 * CompilerConfig (the Extension scheme's, window overridden), and
 * simulates each copy with simulateProgram.
 *
 * Usage: range_sweep [benchmark ...]
 */

#include <iostream>
#include <vector>

#include "common/table.hh"
#include "sim/simulator.hh"
#include "sim/technique.hh"

int
main(int argc, char **argv)
{
    using namespace siq;
    std::vector<std::string> benches;
    for (int i = 1; i < argc; i++)
        benches.emplace_back(argv[i]);
    if (benches.empty())
        benches = {"gzip", "mcf", "vortex", "bzip2", "gcc"};

    const std::vector<int> ranges = {4, 8, 16, 32, 48, 80};

    sim::RunConfig cfg;
    cfg.warmupInsts = 100000;
    cfg.measureInsts = 300000;
    const sim::TechniqueDef &baseline = *sim::findTechnique("baseline");
    const sim::TechniqueDef &extension = *sim::findTechnique("extension");

    std::vector<std::string> headers = {"benchmark", "base IPC"};
    for (int r : ranges)
        headers.push_back("R<=" + std::to_string(r));
    Table t(headers);

    for (const auto &bench : benches) {
        const Program prog = workloads::generate(bench, cfg.workload);
        const auto base = sim::simulateProgram(prog, baseline, cfg);
        std::vector<std::string> row = {bench, Table::fmt(base.ipc(), 3)};
        for (int r : ranges) {
            auto cc = *extension.compilerConfig(cfg);
            cc.minHint = 1;
            cc.machine.iqSize = r; // forces every hint <= r
            Program annotated = prog;
            compiler::annotate(annotated, cc);
            const auto cell =
                sim::simulateProgram(annotated, extension, cfg);
            const double loss = 1.0 - cell.ipc() / base.ipc();
            row.push_back(Table::pct(loss) + "/" +
                          Table::fmt(cell.avgIqOccupancy(), 0));
        }
        t.addRow(row);
    }
    std::cout << "cells: IPC loss vs baseline / avg occupancy ("
              << benches.size() * (ranges.size() + 1) << " runs)\n";
    t.print(std::cout);
    return 0;
}
