/**
 * @file
 * Figure 10: normalised IPC loss for the Extension and Improved
 * schemes, next to NOOP and abella (paper: noop 2.2% -> extension
 * 1.7% -> improved <1.3%; abella 3.1%; vortex drops 5.4% -> 2.4%
 * under Extension; bzip2's loss vanishes under Improved; gcc barely
 * improves).
 */

#include "bench/common.hh"

int
main()
{
    using namespace siq;
    bench::header("Figure 10: IPC loss, Extension & Improved",
                  "noop 2.2% -> extension 1.7% -> improved <1.3%; "
                  "abella 3.1%");

    const auto m = bench::runMatrix(
        {"baseline", "noop", "extension", "improved", "abella"});

    Table t({"benchmark", "noop", "extension", "improved", "abella"});
    std::vector<double> n, e, im, a;
    for (std::size_t i = 0; i < m.benches.size(); i++) {
        const auto &base = m.at("baseline", i);
        const double ln = bench::ipcLoss(base, m.at("noop", i));
        const double le = bench::ipcLoss(base, m.at("extension", i));
        const double li = bench::ipcLoss(base, m.at("improved", i));
        const double la = bench::ipcLoss(base, m.at("abella", i));
        n.push_back(ln);
        e.push_back(le);
        im.push_back(li);
        a.push_back(la);
        t.addRow({m.benches[i], Table::pct(ln), Table::pct(le),
                  Table::pct(li), Table::pct(la)});
    }
    t.addRow({bench::suiteLabel(m.benches), Table::pct(bench::mean(n)),
              Table::pct(bench::mean(e)),
              Table::pct(bench::mean(im)),
              Table::pct(bench::mean(a))});
    t.print(std::cout);
    std::cout << "\npaper: 2.2% / 1.7% / <1.3% / 3.1%\n";
    return 0;
}
