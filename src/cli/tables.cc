#include "cli/tables.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "common/table.hh"
#include "cpu/core.hh"
#include "sim/checkpoint.hh"
#include "sim/report.hh"
#include "sim/technique.hh"
#include "workloads/workloads.hh"

namespace siq::cli
{

namespace
{

using sim::RunResult;

/** One complete run directory: its spec and its merged cells. */
struct Run
{
    std::string dir;
    sim::SweepSpec spec;
    sim::SweepResult cells;

    const std::vector<std::string> &
    workloads() const
    {
        return cells.benchmarks;
    }

    const RunResult &
    at(const std::string &technique, std::size_t workload) const
    {
        return cells.at(technique, workload);
    }
};

Run
loadRun(const std::string &dir)
{
    Run run{dir, {}, {}};
    std::ifstream is(std::filesystem::path(dir) / "spec.json");
    if (!is) {
        fatal("siqsim table: '", dir, "' has no spec.json (not a run "
              "directory written by 'siqsim run --ckpt')");
    }
    run.spec = sim::readSpecJson(is);
    const auto have = sim::scanCheckpoints(dir, run.spec);
    const auto missing = std::count(have.begin(), have.end(), false);
    if (missing > 0) {
        fatal("siqsim table: run directory '", dir, "' is incomplete: ",
              missing, " of ", have.size(), " cells missing (see "
              "'siqsim status ", dir, "')");
    }
    run.cells = sim::mergeCheckpoints({dir});
    return run;
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0
                          : sum / static_cast<double>(values.size());
}

double
ipcLoss(const RunResult &base, const RunResult &tech)
{
    return base.ipc() > 0.0 ? 1.0 - tech.ipc() / base.ipc() : 0.0;
}

/** One workload's cells of a run. */
struct Workload
{
    const Run &run;
    std::size_t index;

    const RunResult &
    operator[](const std::string &technique) const
    {
        return run.at(technique, index);
    }

    double
    loss(const std::string &technique) const
    {
        return ipcLoss((*this)["baseline"], (*this)[technique]);
    }

    sim::PowerComparison
    power(const std::string &technique) const
    {
        return sim::comparePower((*this)["baseline"], (*this)[technique]);
    }
};

struct Column
{
    const char *header;
    /** Decimal places; -1: a percentage with one. */
    int digits = -1;
    /** False: the suite-mean row shows "-" in this column. */
    bool averaged = true;

    std::string
    format(double v) const
    {
        return digits < 0 ? Table::pct(v) : Table::fmt(v, digits);
    }
};

/**
 * The per-workload figure shape: one row per workload of @p run, then
 * the suite-mean row ("SPECINT" when the workloads are exactly the
 * paper's eleven). @p row gives one value per column; values past the
 * last column are averaged but not printed. Returns every mean, for
 * the footer.
 */
std::vector<double>
workloadTable(const Run &run, const std::vector<Column> &cols,
              const std::function<std::vector<double>(const Workload &)>
                  &row,
              std::ostream &os)
{
    std::vector<std::string> headers = {"benchmark"};
    for (const auto &c : cols)
        headers.push_back(c.header);
    Table t(headers);
    std::vector<std::vector<double>> values;
    const auto &names = run.workloads();
    for (std::size_t b = 0; b < names.size(); b++) {
        const auto v = row(Workload{run, b});
        values.resize(v.size());
        std::vector<std::string> cells = {names[b]};
        for (std::size_t c = 0; c < v.size(); c++) {
            values[c].push_back(v[c]);
            if (c < cols.size())
                cells.push_back(cols[c].format(v[c]));
        }
        t.addRow(std::move(cells));
    }
    std::vector<double> means;
    for (const auto &v : values)
        means.push_back(mean(v));
    std::vector<std::string> meanRow = {
        names == workloads::benchmarkNames() ? "SPECINT" : "MEAN"};
    for (std::size_t c = 0; c < cols.size(); c++)
        meanRow.push_back(cols[c].averaged ? cols[c].format(means[c])
                                           : "-");
    t.addRow(std::move(meanRow));
    t.print(os);
    return means;
}

/**
 * One row per technique of @p techniques but baseline; each column is
 * the mean over the @p workloads workloads of @p row's value.
 */
void
techniqueTable(const std::vector<std::string> &techniques,
               std::size_t workloads, const std::vector<Column> &cols,
               const std::function<std::vector<double>(
                   const std::string &, std::size_t)> &row,
               std::ostream &os)
{
    std::vector<std::string> headers = {"technique"};
    for (const auto &c : cols)
        headers.push_back(c.header);
    Table t(headers);
    for (const auto &tech : techniques) {
        if (tech == "baseline")
            continue;
        std::vector<std::vector<double>> values(cols.size());
        for (std::size_t b = 0; b < workloads; b++) {
            const auto v = row(tech, b);
            for (std::size_t c = 0; c < cols.size(); c++)
                values[c].push_back(v[c]);
        }
        std::vector<std::string> cells = {tech};
        for (std::size_t c = 0; c < cols.size(); c++)
            cells.push_back(cols[c].format(mean(values[c])));
        t.addRow(std::move(cells));
    }
    t.print(os);
}

// ------------------------------------------------- paper figures 6-12

void
fig6(const std::vector<Run> &runs, std::ostream &os)
{
    const Run &run = runs.front();
    workloadTable(run,
                  {{"base IPC", 3, false},
                   {"noop loss"},
                   {"abella loss"}},
                  [](const Workload &w) {
                      return std::vector{w["baseline"].ipc(),
                                         w.loss("noop"), w.loss("abella")};
                  },
                  os);
    os << "\npaper: SPECINT 2.2%, abella 3.1%\n";
    if (run.cells.aggregates.empty())
        return;
    os << "\nreplication (n=" << run.cells.seeds
       << " seeds per cell), IPC mean +/- ci95:\n";
    for (std::size_t b = 0; b < run.workloads().size(); b++) {
        const auto &base = run.cells.aggAt("baseline", b).ipc;
        const auto &noop = run.cells.aggAt("noop", b).ipc;
        os << "  " << run.workloads()[b] << ": baseline "
           << Table::fmt(base.mean, 3) << " +/- "
           << Table::fmt(base.ci95, 3) << ", noop "
           << Table::fmt(noop.mean, 3) << " +/- "
           << Table::fmt(noop.ci95, 3) << "\n";
    }
}

void
fig7(const std::vector<Run> &runs, std::ostream &os)
{
    workloadTable(runs.front(),
                  {{"base occ", 1, false},
                   {"noop occ", 1, false},
                   {"reduction"}},
                  [](const Workload &w) {
                      const double base = w["baseline"].avgIqOccupancy();
                      const double noop = w["noop"].avgIqOccupancy();
                      return std::vector{
                          base, noop, base > 0.0 ? 1.0 - noop / base : 0.0};
                  },
                  os);
    os << "\npaper: average 23% reduction\n";
}

void
fig8(const std::vector<Run> &runs, std::ostream &os)
{
    const auto means = workloadTable(
        runs.front(),
        {{"noop dyn"}, {"noop stat"}, {"abella dyn"}, {"abella stat"},
         {"banksOff noop"}, {"banksOff abella"}},
        [](const Workload &w) {
            const auto cn = w.power("noop");
            const auto ca = w.power("abella");
            return std::vector{cn.iqDynamicSaving, cn.iqStaticSaving,
                               ca.iqDynamicSaving, ca.iqStaticSaving,
                               w["noop"].iqBanksOffFraction(),
                               w["abella"].iqBanksOffFraction(),
                               cn.nonEmptySaving};
        },
        os);
    os << "\nnonEmpty (gating only, no resizing): " << Table::pct(means[6])
       << " dynamic saving\n"
       << "paper: noop 47%/31%, abella 39%/30%, nonEmpty bar below "
          "noop; banks off 37% vs 34%\n";
}

void
fig9(const std::vector<Run> &runs, std::ostream &os)
{
    const auto means = workloadTable(
        runs.front(),
        {{"noop dyn"}, {"noop stat"}, {"abella dyn"}, {"abella stat"}},
        [](const Workload &w) {
            const auto cn = w.power("noop");
            const auto ca = w.power("abella");
            const double base = w["baseline"].dispatchRate();
            return std::vector{cn.rfDynamicSaving, cn.rfStaticSaving,
                               ca.rfDynamicSaving, ca.rfStaticSaving,
                               1.0 - w["noop"].dispatchRate() / base,
                               1.0 - w["abella"].dispatchRate() / base};
        },
        os);
    os << "\ndispatch-rate reduction: noop " << Table::pct(means[4])
       << ", abella " << Table::pct(means[5])
       << " (paper: 6.8% vs 5.1%)\n"
       << "paper: noop 22%/21%, abella 14%/17%\n";
}

void
fig10(const std::vector<Run> &runs, std::ostream &os)
{
    workloadTable(runs.front(),
                  {{"noop"}, {"extension"}, {"improved"}, {"abella"}},
                  [](const Workload &w) {
                      return std::vector{w.loss("noop"), w.loss("extension"),
                                         w.loss("improved"),
                                         w.loss("abella")};
                  },
                  os);
    os << "\npaper: 2.2% / 1.7% / <1.3% / 3.1%\n";
}

void
fig11(const std::vector<Run> &runs, std::ostream &os)
{
    const auto means = workloadTable(
        runs.front(),
        {{"ext dyn"}, {"ext stat"}, {"imp dyn"}, {"imp stat"}},
        [](const Workload &w) {
            const auto ce = w.power("extension");
            const auto ci = w.power("improved");
            return std::vector{ce.iqDynamicSaving, ce.iqStaticSaving,
                               ci.iqDynamicSaving, ci.iqStaticSaving,
                               ci.rfDynamicSaving};
        },
        os);
    // paper §6: overall processor dynamic savings assuming the IQ is
    // 22% and the integer RF 11% of whole-processor power
    const double overall = 0.22 * means[2] + 0.11 * means[4];
    os << "\noverall processor dynamic saving (22% IQ + 11% RF shares): "
       << Table::pct(overall) << " (paper: ~11%)\n"
       << "paper: extension/improved ~45% dyn, 30% stat\n";
}

void
fig12(const std::vector<Run> &runs, std::ostream &os)
{
    workloadTable(runs.front(),
                  {{"ext dyn"}, {"ext stat"}, {"imp dyn"}, {"imp stat"}},
                  [](const Workload &w) {
                      const auto ce = w.power("extension");
                      const auto ci = w.power("improved");
                      return std::vector{ce.rfDynamicSaving,
                                         ce.rfStaticSaving,
                                         ci.rfDynamicSaving,
                                         ci.rfStaticSaving};
                  },
                  os);
    os << "\npaper: extension 21%/21%, improved 22%/20%\n";
}

// ------------------------------------------------------------ table 1

void
table1(const std::vector<Run> &, std::ostream &os)
{
    const CoreConfig cfg;
    const auto fu = [&](FuClass c) {
        return std::to_string(cfg.fuCounts[static_cast<int>(c)]);
    };
    const auto cache = [](const CacheConfig &c) {
        return std::to_string(c.sizeBytes / 1024) + "KB " +
               std::to_string(c.assoc) + "-way " +
               std::to_string(c.hitLatency) + "cy";
    };
    Table t({"parameter", "value", "paper"});
    t.addRow({"fetch/decode/commit width", std::to_string(cfg.fetchWidth),
              "8"});
    t.addRow({"branch predictor",
              std::to_string(cfg.bpred.gshareEntries) + " gshare + " +
                  std::to_string(cfg.bpred.bimodalEntries) +
                  " bimodal + " +
                  std::to_string(cfg.bpred.selectorEntries) + " selector",
              "2K/2K/1K hybrid"});
    t.addRow({"BTB",
              std::to_string(cfg.bpred.btbEntries) + " entries, " +
                  std::to_string(cfg.bpred.btbAssoc) + "-way",
              "2048, 4-way"});
    t.addRow({"L1 icache", cache(cfg.mem.l1i), "64KB 2-way 1cy"});
    t.addRow({"L1 dcache", cache(cfg.mem.l1d), "64KB 4-way 2cy"});
    t.addRow({"unified L2",
              cache(cfg.mem.l2) + " hit, " +
                  std::to_string(cfg.mem.memLatency) + "cy miss",
              "512KB 8-way 10cy/50cy"});
    t.addRow({"ROB", std::to_string(cfg.robSize), "128"});
    t.addRow({"issue queue",
              std::to_string(cfg.iq.numEntries) + " entries, banks of " +
                  std::to_string(cfg.iq.bankSize),
              "80 entries"});
    t.addRow({"int regs",
              std::to_string(cfg.intRegs.numPhys) + " (" +
                  std::to_string(cfg.intRegs.numPhys /
                                 cfg.intRegs.bankSize) +
                  " banks of " + std::to_string(cfg.intRegs.bankSize) +
                  ")",
              "112 (14 banks of 8)"});
    t.addRow({"fp regs", std::to_string(cfg.fpRegs.numPhys), "112"});
    t.addRow({"int FUs",
              fu(FuClass::IntAlu) + " ALU, " + fu(FuClass::IntMul) + " Mul",
              "6 ALU (1cy), 3 Mul (3cy)"});
    t.addRow({"fp FUs",
              fu(FuClass::FpAlu) + " ALU, " + fu(FuClass::FpMulDiv) +
                  " MulDiv",
              "4 ALU (2cy), 2 MulDiv (4cy/12cy)"});
    t.print(os);
    // the full check of every row is a unit test (test_integration)
    const bool matches = cfg.fetchWidth == 8 && cfg.robSize == 128 &&
                         cfg.iq.numEntries == 80 &&
                         cfg.intRegs.numPhys == 112;
    os << "\nconfiguration " << (matches ? "matches" : "differs from")
       << " Table 1\n";
}

// ------------------------------------------- extension: speculation

void
mispredict(const std::vector<Run> &runs, std::ostream &os)
{
    // the mode comes from each run's spec, never from argument order
    const auto mode = [&](bool speculative) -> const Run & {
        const auto it = std::find_if(runs.begin(), runs.end(),
                                     [&](const Run &r) {
                                         return r.spec.base.core
                                                    .specFrontEnd ==
                                                speculative;
                                     });
        if (it == runs.end()) {
            fatal("siqsim table mispredict: needs one oracle run and one "
                  "run with core.specFrontEnd; none of '",
                  runs[0].dir, "', '", runs[1].dir, "' is ",
                  speculative ? "speculative" : "oracle");
        }
        return *it;
    };
    const Run &oracle = mode(false);
    const Run &spec = mode(true);

    // the suite means per technique, each mode against its own
    // baseline
    techniqueTable(sim::techniqueNames(), oracle.workloads().size(),
                   {{"iq dyn (oracle)"},
                    {"iq dyn (spec)"},
                    {"ipc loss (oracle)"},
                    {"ipc loss (spec)"}},
                   [&](const std::string &tech, std::size_t b) {
                       const Workload o{oracle, b};
                       const Workload s{spec, b};
                       return std::vector{o.power(tech).iqDynamicSaving,
                                          s.power(tech).iqDynamicSaving,
                                          o.loss(tech), s.loss(tech)};
                   },
                   os);

    // the speculation itself, per workload (baseline cells: the front
    // end is technique-independent, so one column suffices)
    os << "\n";
    workloadTable(
        spec,
        {{"mispred/kI", 2},
         {"squash cycles"},
         {"wrong-path fetch/squash", 2}},
        [](const Workload &w) {
            const auto &s = w["baseline"].stats;
            const auto ratio = [](std::uint64_t n, std::uint64_t d) {
                return d > 0 ? static_cast<double>(n) /
                                   static_cast<double>(d)
                             : 0.0;
            };
            return std::vector{
                1000.0 * ratio(s.branchMispredicts, s.committed),
                ratio(s.squashCycles, s.cycles),
                ratio(s.wrongPathFetched, s.squashes)};
        },
        os);
    os << "\nsquash cycles: fraction of baseline cycles spent between "
          "arming a\nmispredict and its checkpointed recovery "
          "(wrong-path fetch live)\n";
}

// ------------------------------------------ design-choice ablations

/** One row per workload: a labelled run's (or technique's) cell
 *  measured against its own run's baseline. */
struct Variant
{
    std::string label;
    const Run *run;
    std::string technique;
};

void
variantTable(const std::vector<std::string> &headers,
             const std::vector<Variant> &variants,
             std::vector<std::string> (*row)(const RunResult &base,
                                             const RunResult &r),
             std::ostream &os)
{
    Table t(headers);
    const auto &names = variants.front().run->workloads();
    for (std::size_t b = 0; b < names.size(); b++) {
        for (const auto &v : variants) {
            auto cells = row(v.run->at("baseline", b),
                             v.run->at(v.technique, b));
            cells.insert(cells.begin(), {names[b], v.label});
            t.addRow(std::move(cells));
        }
    }
    t.print(os);
}

/**
 * The noop cells of a one-field ablation: one variant per run, ordered
 * by the run's value of @p field (@p key) and labelled from it — never
 * from argument order. Two runs with one value are an error.
 */
std::vector<Variant>
fieldVariants(const std::vector<Run> &runs, const char *field,
              int (*key)(const sim::RunConfig &),
              std::string (*label)(const sim::RunConfig &))
{
    std::vector<const Run *> sorted;
    for (const auto &r : runs)
        sorted.push_back(&r);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&](const Run *a, const Run *b) {
                         return key(a->spec.base) < key(b->spec.base);
                     });
    std::vector<Variant> out;
    for (std::size_t i = 0; i < sorted.size(); i++) {
        if (i > 0 &&
            key(sorted[i]->spec.base) == key(sorted[i - 1]->spec.base)) {
            fatal("siqsim table: runs '", sorted[i - 1]->dir, "' and '",
                  sorted[i]->dir, "' have the same ", field, " (",
                  label(sorted[i]->spec.base), ")");
        }
        out.push_back({label(sorted[i]->spec.base), sorted[i], "noop"});
    }
    return out;
}

std::vector<std::string>
lossAndDynSaving(const RunResult &base, const RunResult &r)
{
    return {Table::pct(ipcLoss(base, r)),
            Table::pct(sim::comparePower(base, r).iqDynamicSaving)};
}

void
ablationFloor(const std::vector<Run> &runs, std::ostream &os)
{
    variantTable(
        {"benchmark", "floor", "IPC loss", "IQ dyn saving"},
        fieldVariants(
            runs, "minHint",
            [](const sim::RunConfig &c) { return c.minHint; },
            [](const sim::RunConfig &c) { return std::to_string(c.minHint); }),
        lossAndDynSaving, os);
    os << '\n';
}

void
ablationBanks(const std::vector<Run> &runs, std::ostream &os)
{
    // coarsest banks first
    variantTable(
        {"benchmark", "banks", "banks off", "IQ stat saving"},
        fieldVariants(
            runs, "core.iq.bankSize",
            [](const sim::RunConfig &c) { return -c.core.iq.bankSize; },
            [](const sim::RunConfig &c) {
                return std::to_string(c.core.iq.numEntries /
                                      c.core.iq.bankSize) +
                       "x" + std::to_string(c.core.iq.bankSize);
            }),
        [](const RunResult &base, const RunResult &r) {
            return std::vector<std::string>{
                Table::pct(r.iqBanksOffFraction()),
                Table::pct(sim::comparePower(base, r).iqStaticSaving)};
        },
        os);
    os << '\n';
}

void
ablationElision(const std::vector<Run> &runs, std::ostream &os)
{
    variantTable(
        {"benchmark", "elide", "hint noops", "IPC loss"},
        fieldVariants(
            runs, "elideRedundant",
            [](const sim::RunConfig &c) { return c.elideRedundant ? 0 : 1; },
            [](const sim::RunConfig &c) {
                return std::string(c.elideRedundant ? "on" : "off");
            }),
        [](const RunResult &base, const RunResult &r) {
            return std::vector<std::string>{
                std::to_string(r.compile.hintNoopsInserted),
                Table::pct(ipcLoss(base, r))};
        },
        os);
    os << '\n';
}

void
ablationResizers(const std::vector<Run> &runs, std::ostream &os)
{
    std::vector<Variant> variants;
    for (const char *tech : {"noop", "abella", "folegnani"})
        variants.push_back({tech, &runs.front(), tech});
    variantTable({"benchmark", "technique", "IPC loss", "IQ dyn saving"},
                 variants, lossAndDynSaving, os);
}

// ------------------------------------------------ technique compare

void
compare(const std::vector<Run> &runs, std::ostream &os)
{
    const Run &run = runs.front();
    const std::size_t nw = run.workloads().size();
    std::vector<double> ipc, occupancy, banksOff;
    for (std::size_t b = 0; b < nw; b++) {
        const auto &base = run.at("baseline", b);
        ipc.push_back(base.ipc());
        occupancy.push_back(base.avgIqOccupancy());
        banksOff.push_back(base.iqBanksOffFraction());
    }
    os << "technique comparison over";
    for (std::size_t b = 0; b < nw; b++)
        os << (b ? "," : " ") << run.workloads()[b];
    os << ": baseline IPC " << Table::fmt(mean(ipc), 3) << " ("
       << run.cells.cells.size() << " cells)\n\n";

    techniqueTable(
        run.spec.techniques, nw,
        {{"IPC loss"}, {"IQ occ", 1}, {"IQ dyn"}, {"IQ stat"},
         {"RF dyn"}, {"RF stat"}, {"banks off"}},
        [&](const std::string &tech, std::size_t b) {
            const Workload w{run, b};
            const auto p = w.power(tech);
            return std::vector{w.loss(tech), w[tech].avgIqOccupancy(),
                               p.iqDynamicSaving, p.iqStaticSaving,
                               p.rfDynamicSaving, p.rfStaticSaving,
                               w[tech].iqBanksOffFraction()};
        },
        os);
    os << "\nbaseline occupancy " << Table::fmt(mean(occupancy), 1)
       << ", banks off " << Table::pct(mean(banksOff))
       << "; paper headline: noop 2.2% loss 47%/31% IQ savings, "
          "improved <1.3% loss 45%/30%\n";
}

// ------------------------------------------------------- definitions

struct TableDef
{
    const char *name;
    const char *title;
    /** The paper's numbers for the header; null: no header, the
     *  renderer's first line is the title. */
    const char *paperRef;
    /** Techniques every run must carry. */
    std::vector<std::string> techniques;
    /** Run directories taken; -1: one or more. */
    int runs;
    void (*render)(const std::vector<Run> &, std::ostream &);
};

const std::vector<TableDef> &
tableDefs()
{
    static const std::vector<TableDef> defs = {
        {"fig6", "Figure 6: IPC loss, NOOP scheme",
         "SPECINT avg 2.2% (abella 3.1%); worst vortex 5.4%, best mcf "
         "0.4%",
         {"baseline", "noop", "abella"}, 1, fig6},
        {"fig7", "Figure 7: IQ occupancy reduction, NOOP scheme",
         "average 23% fewer entries occupied", {"baseline", "noop"},
         1, fig7},
        {"fig8", "Figure 8: IQ power savings, NOOP scheme",
         "dynamic 47% / static 31% (abella 39%/30%); nonEmpty gating "
         "alone saves less than the full technique; 37% of banks off "
         "(abella 34%)",
         {"baseline", "noop", "abella"}, 1, fig8},
        {"fig9", "Figure 9: integer RF power savings, NOOP scheme",
         "dynamic 22% / static 21% (abella 14%/17%); 6.8% fewer "
         "dispatches (abella 5.1%)",
         {"baseline", "noop", "abella"}, 1, fig9},
        {"fig10", "Figure 10: IPC loss, Extension & Improved",
         "noop 2.2% -> extension 1.7% -> improved <1.3%; abella 3.1%",
         {"baseline", "noop", "extension", "improved", "abella"},
         1, fig10},
        {"fig11", "Figure 11: IQ power savings, Extension & Improved",
         "both ~45% dynamic / 30% static",
         {"baseline", "extension", "improved"}, 1, fig11},
        {"fig12", "Figure 12: RF power savings, Extension & Improved",
         "extension 21% dyn / 21% stat; improved 22% / 20%",
         {"baseline", "extension", "improved"}, 1, fig12},
        {"table1", "Table 1: processor configuration",
         "8-wide fetch/decode/commit; hybrid 2K gshare + 2K bimodal + "
         "1K selector; BTB 2048x4; L1I 64KB/2w/32B 1cy; L1D 64KB/4w/32B "
         "2cy; L2 512KB/8w/64B 10cy hit 50cy miss; ROB 128; IQ 80; 112 "
         "int + 112 fp regs (14 banks of 8); 6 IntALU, 3 IntMul, 4 "
         "FpALU, 2 FpMulDiv",
         {}, 0, table1},
        {"mispredict",
         "Mispredict recovery: IQ savings under a real front end",
         "extension study — oracle-front-end savings (Figs 8-12) "
         "re-measured with gshare+BTB+RAS speculation, wrong-path fetch "
         "and squash recovery",
         sim::techniqueNames(), 2, mispredict},
        {"A1", "A1: hint clamp floor sweep",
         "larger floors trade power savings for IPC safety",
         {"baseline", "noop"}, -1, ablationFloor},
        {"A2", "A2: IQ bank granularity",
         "finer banks gate more but cost overhead per bank",
         {"baseline", "noop"}, -1, ablationBanks},
        {"A3", "A3: redundant-hint elision",
         "elision removes NOOPs whose value matches the incoming range",
         {"baseline", "noop"}, -1, ablationElision},
        {"A4", "A4: Folegnani&Gonzalez resizer",
         "the ISCA'01 heuristic vs abella vs compiler hints",
         {"baseline", "noop", "abella", "folegnani"}, 1,
         ablationResizers},
        {"compare", "every technique against baseline, suite means",
         nullptr, {"baseline"}, 1, compare},
    };
    return defs;
}

std::string
tableNames()
{
    std::string out;
    for (const auto &d : tableDefs()) {
        if (!out.empty())
            out += ", ";
        out += d.name;
    }
    return out;
}

} // namespace

void
printTable(const std::string &name, const std::vector<std::string> &dirs,
           std::ostream &os)
{
    const auto &defs = tableDefs();
    const auto def = std::find_if(defs.begin(), defs.end(),
                                  [&](const TableDef &d) {
                                      return d.name == name;
                                  });
    if (def == defs.end())
        fatal("siqsim table: unknown table '", name, "' (tables: ",
              tableNames(), ")");

    const auto n = static_cast<int>(dirs.size());
    if (def->runs < 0 ? n < 1 : n != def->runs) {
        fatal("siqsim table ", name, ": takes ",
              def->runs < 0 ? "one or more" : std::to_string(def->runs),
              " run director", def->runs == 1 ? "y" : "ies", ", got ", n);
    }

    std::vector<Run> runs;
    for (const auto &dir : dirs) {
        runs.push_back(loadRun(dir));
        const Run &run = runs.back();
        for (const auto &tech : def->techniques) {
            const auto &have = run.spec.techniques;
            if (std::find(have.begin(), have.end(), tech) == have.end()) {
                fatal("siqsim table ", name, ": run '", dir,
                      "' lacks technique '", tech, "'");
            }
        }
        if (run.workloads() != runs.front().workloads()) {
            fatal("siqsim table ", name, ": runs '", runs.front().dir,
                  "' and '", dir, "' sweep different workloads");
        }
    }

    if (def->paperRef != nullptr) {
        os << "==== " << def->title << " ====\n"
           << "paper reference: " << def->paperRef << "\n\n";
    }
    def->render(runs, os);
}

std::string
tableList()
{
    std::ostringstream os;
    for (const auto &d : tableDefs())
        os << "  " << std::left << std::setw(29) << d.name << d.title
           << "\n";
    return os.str();
}

} // namespace siq::cli
