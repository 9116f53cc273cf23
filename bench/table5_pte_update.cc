/**
 * @file
 * Table 5: performance loss from the page-table-update software
 * routine as its cost sweeps {10, 20, 40} us, relative to free
 * updates.
 *
 * Paper headline (Section 5.5.2): average loss under 1 % and
 * sublinear in the cost, because the tag buffer batches updates and
 * the bandwidth-aware policy keeps replacements (and hence remaps)
 * rare.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/units.hh"
#include "sim/report.hh"

using namespace banshee;
using namespace banshee::benchutil;

int
main(int argc, char **argv)
{
    BenchRun bench(argc, argv, "table5_pte_update",
                   "Table 5: page-table update overhead (Banshee)",
                   "Banshee (MICRO'17), Table 5");
    const BenchOptions &opt = bench.opt;

    const std::vector<double> costsUs = {0.0, 10.0, 20.0, 40.0};
    std::vector<Experiment> exps;
    for (const auto &w : opt.workloads) {
        for (double us : costsUs) {
            SystemConfig c = configFor(opt.base, w, SchemeKind::Banshee);
            c.osCosts.pteUpdateRoutine = usToCycles(us);
            if (us == 0.0) {
                c.osCosts.shootdownInitiator = 0;
                c.osCosts.shootdownSlave = 0;
            }
            exps.push_back({w + "/u" + fmt(us, 0), c});
        }
    }
    const Sweep &index = bench.run(std::move(exps));

    TablePrinter table({"cost (us)", "avg perf loss", "max perf loss",
                        "updates/run"},
                       16);
    table.printHeader();

    for (double us : costsUs) {
        if (us == 0.0)
            continue;
        double sumLoss = 0.0, maxLoss = 0.0, updates = 0.0;
        for (const auto &w : opt.workloads) {
            const RunResult &free = index.at(w, "u0");
            const RunResult &r = index.at(w, "u" + fmt(us, 0));
            const double loss =
                static_cast<double>(r.cycles) / free.cycles - 1.0;
            sumLoss += loss;
            maxLoss = std::max(maxLoss, loss);
            updates += static_cast<double>(r.pteUpdateRuns);
        }
        const double n = static_cast<double>(opt.workloads.size());
        table.printRow({fmt(us, 0), fmt(100.0 * sumLoss / n, 2) + "%",
                        fmt(100.0 * maxLoss, 2) + "%",
                        fmt(updates / n, 1)});
    }

    std::printf("\nPaper: 10us -> 0.11%% avg / 0.76%% max; "
                "20us -> 0.18%% / 1.3%%; 40us -> 0.31%% / 2.4%%.\n");
    return bench.finish();
}
