/**
 * @file
 * Figure 7: normalised issue queue occupancy reduction for the NOOP
 * technique (paper average: 23%).
 */

#include "bench/common.hh"

int
main()
{
    using namespace siq;
    bench::header("Figure 7: IQ occupancy reduction, NOOP scheme",
                  "average 23% fewer entries occupied");

    const auto m = bench::runMatrix({"baseline", "noop"});

    Table t({"benchmark", "base occ", "noop occ", "reduction"});
    std::vector<double> reductions;
    for (std::size_t i = 0; i < m.benches.size(); i++) {
        const auto &base = m.at("baseline", i);
        const auto &noop = m.at("noop", i);
        const double reduction =
            base.avgIqOccupancy() > 0.0
                ? 1.0 - noop.avgIqOccupancy() / base.avgIqOccupancy()
                : 0.0;
        reductions.push_back(reduction);
        t.addRow({m.benches[i], Table::fmt(base.avgIqOccupancy(), 1),
                  Table::fmt(noop.avgIqOccupancy(), 1),
                  Table::pct(reduction)});
    }
    t.addRow({bench::suiteLabel(m.benches), "-", "-",
              Table::pct(bench::mean(reductions))});
    t.print(std::cout);
    std::cout << "\npaper: average 23% reduction\n";
    return 0;
}
