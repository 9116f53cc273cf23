/**
 * @file
 * Figure 5: in-package DRAM traffic (bytes per instruction), broken
 * into HitData / MissData / Tag / Replacement, for every workload and
 * cache scheme.
 *
 * Paper headline (Section 5.3): Banshee moves 35.8 % less in-package
 * traffic than the best baseline; its bars contain no MissData and
 * almost no Tag component.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/report.hh"

using namespace banshee;
using namespace banshee::benchutil;

int
main(int argc, char **argv)
{
    BenchRun bench(argc, argv, "fig5_inpkg_traffic",
                   "Figure 5: in-package DRAM traffic breakdown "
                   "(bytes/instruction)",
                   "Banshee (MICRO'17), Fig. 5");
    const BenchOptions &opt = bench.opt;
    const Sweep &index = bench.run(schemeGrid(opt));

    TablePrinter table(
        {"workload", "scheme", "HitData", "MissData", "Tag",
         "Replacement", "Total"},
        12);
    table.printHeader();

    // Fig. 5 folds the frequency counters into Tag; Fig. 9 splits.
    auto tagBpi = [](const RunResult &r) {
        return r.inPkgBpi(TrafficCat::Tag) + r.inPkgBpi(TrafficCat::Counter);
    };

    std::map<std::string, std::vector<double>> totals;
    const auto schemes = std::vector<std::string>{
        "Unison", "TDC", "Alloy 1", "Alloy 0.1", "Banshee"};
    for (const auto &w : opt.workloads) {
        for (const auto &s : schemes) {
            const RunResult &r = index.at(w, s);
            table.printRow({w, s, fmt(r.inPkgBpi(TrafficCat::HitData)),
                            fmt(r.inPkgBpi(TrafficCat::MissData)),
                            fmt(tagBpi(r)),
                            fmt(r.inPkgBpi(TrafficCat::Replacement)),
                            fmt(r.inPkgTotalBpi())});
            totals[s].push_back(r.inPkgTotalBpi());
        }
        table.printRule();
    }

    std::printf("\nAverage total in-package traffic (bytes/instr):\n");
    double bestBaseline = 1e30;
    double bansheeAvg = 0.0;
    for (const auto &s : schemes) {
        double sum = 0.0;
        for (double v : totals[s])
            sum += v;
        const double avg = sum / totals[s].size();
        std::printf("  %-10s %.2f\n", s.c_str(), avg);
        if (s == "Banshee")
            bansheeAvg = avg;
        else
            bestBaseline = std::min(bestBaseline, avg);
    }
    std::printf("\nBanshee vs best baseline: %+.1f%% traffic "
                "(paper: -35.8%%)\n",
                100.0 * (bansheeAvg / bestBaseline - 1.0));
    return bench.finish();
}
