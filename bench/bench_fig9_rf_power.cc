/**
 * @file
 * Figure 9: normalised dynamic and static integer register file power
 * savings for the NOOP technique vs abella, plus §5.2.3's dispatch
 * reduction (6.8% vs 5.1% fewer instructions dispatched per cycle).
 */

#include "bench/common.hh"

int
main()
{
    using namespace siq;
    bench::header("Figure 9: integer RF power savings, NOOP scheme",
                  "dynamic 22% / static 21% (abella 14%/17%); 6.8% "
                  "fewer dispatches (abella 5.1%)");

    const auto m = bench::runMatrix({"baseline", "noop", "abella"});

    Table t({"benchmark", "noop dyn", "noop stat", "abella dyn",
             "abella stat"});
    std::vector<double> nd, ns, ad, as, disN, disA;
    for (std::size_t i = 0; i < m.benches.size(); i++) {
        const auto &base = m.at("baseline", i);
        const auto &noop = m.at("noop", i);
        const auto &abella = m.at("abella", i);
        const auto cn = sim::comparePower(base, noop);
        const auto ca = sim::comparePower(base, abella);
        nd.push_back(cn.rfDynamicSaving);
        ns.push_back(cn.rfStaticSaving);
        ad.push_back(ca.rfDynamicSaving);
        as.push_back(ca.rfStaticSaving);
        disN.push_back(1.0 - noop.dispatchRate() /
                                 base.dispatchRate());
        disA.push_back(1.0 - abella.dispatchRate() /
                                 base.dispatchRate());
        t.addRow({m.benches[i], Table::pct(cn.rfDynamicSaving),
                  Table::pct(cn.rfStaticSaving),
                  Table::pct(ca.rfDynamicSaving),
                  Table::pct(ca.rfStaticSaving)});
    }
    t.addRow({bench::suiteLabel(m.benches), Table::pct(bench::mean(nd)),
              Table::pct(bench::mean(ns)),
              Table::pct(bench::mean(ad)),
              Table::pct(bench::mean(as))});
    t.print(std::cout);
    std::cout << "\ndispatch-rate reduction: noop "
              << Table::pct(bench::mean(disN)) << ", abella "
              << Table::pct(bench::mean(disA))
              << " (paper: 6.8% vs 5.1%)\n"
              << "paper: noop 22%/21%, abella 14%/17%\n";
    return 0;
}
