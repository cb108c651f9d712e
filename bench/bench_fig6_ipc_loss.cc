/**
 * @file
 * Figure 6: normalised IPC loss for the NOOP technique, per benchmark
 * plus the SPECINT average, with the abella comparator.
 */

#include "bench/common.hh"

int
main()
{
    using namespace siq;
    bench::header("Figure 6: IPC loss, NOOP scheme",
                  "SPECINT avg 2.2% (abella 3.1%); worst vortex 5.4%, "
                  "best mcf 0.4%");

    const auto m = bench::runMatrix({"baseline", "noop", "abella"});

    Table t({"benchmark", "base IPC", "noop loss", "abella loss"});
    std::vector<double> noopLoss, abellaLoss;
    for (std::size_t i = 0; i < m.benches.size(); i++) {
        const auto &base = m.at("baseline", i);
        const double n = bench::ipcLoss(base, m.at("noop", i));
        const double a = bench::ipcLoss(base, m.at("abella", i));
        noopLoss.push_back(n);
        abellaLoss.push_back(a);
        t.addRow({m.benches[i], Table::fmt(base.ipc(), 3),
                  Table::pct(n), Table::pct(a)});
    }
    t.addRow({bench::suiteLabel(m.benches), "-", Table::pct(bench::mean(noopLoss)),
              Table::pct(bench::mean(abellaLoss))});
    t.print(std::cout);
    std::cout << "\npaper: SPECINT 2.2%, abella 3.1%\n";

    if (m.replicated()) {
        std::cout << "\nreplication (n=" << m.sweep.seeds
                  << " seeds per cell), IPC mean +/- ci95:\n";
        for (std::size_t i = 0; i < m.benches.size(); i++) {
            const auto &base = m.aggAt("baseline", i).ipc;
            const auto &noop = m.aggAt("noop", i).ipc;
            std::cout << "  " << m.benches[i] << ": baseline "
                      << Table::fmt(base.mean, 3) << " +/- "
                      << Table::fmt(base.ci95, 3) << ", noop "
                      << Table::fmt(noop.mean, 3) << " +/- "
                      << Table::fmt(noop.ci95, 3) << "\n";
        }
    }
    return 0;
}
