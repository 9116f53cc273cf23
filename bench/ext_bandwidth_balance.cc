/**
 * @file
 * Section 5.4.2: BATMAN-style bandwidth balancing layered on Alloy
 * and on Banshee. When in-package DRAM carries more than 80 % of the
 * traffic, part of the address space bypasses the cache so both
 * memories' bandwidth gets used.
 *
 * Paper headline: +5 % average (up to +24 %) for Alloy, +1 % average
 * (up to +11 %) for Banshee — smaller for Banshee because it already
 * moves less total traffic. With balancing on, Banshee still wins by
 * 12.4 %.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/report.hh"

using namespace banshee;
using namespace banshee::benchutil;

int
main(int argc, char **argv)
{
    BenchRun bench(argc, argv, "ext_bandwidth_balance",
                   "Section 5.4.2: BATMAN bandwidth balancing on Alloy "
                   "and Banshee",
                   "Banshee (MICRO'17), Section 5.4.2");
    const BenchOptions &opt = bench.opt;

    std::vector<Experiment> exps;
    for (const auto &w : opt.workloads) {
        for (const bool batman : {false, true}) {
            const std::string suffix = batman ? "+BW" : "";
            SystemConfig alloy = configFor(opt.base, w, SchemeKind::Alloy);
            alloy.withAlloyFillProb(0.1);
            alloy.enableBatman = batman;
            exps.push_back({w + "/Alloy" + suffix, alloy});
            SystemConfig banshee =
                configFor(opt.base, w, SchemeKind::Banshee);
            banshee.enableBatman = batman;
            exps.push_back({w + "/Banshee" + suffix, banshee});
        }
    }
    const Sweep &index = bench.run(std::move(exps));

    TablePrinter table({"scheme", "avg gain", "max gain"}, 14);
    table.printHeader();

    double bansheeBw = 0.0, alloyBw = 0.0;
    for (const std::string scheme : {"Alloy", "Banshee"}) {
        double sum = 0.0, best = -1.0;
        std::vector<double> balanced;
        for (const auto &w : opt.workloads) {
            const RunResult &off = index.at(w, scheme);
            const RunResult &on = index.at(w, scheme + "+BW");
            const double gain =
                static_cast<double>(off.cycles) / on.cycles - 1.0;
            sum += gain;
            best = std::max(best, gain);
            balanced.push_back(1.0 / on.cycles);
        }
        const double n = static_cast<double>(opt.workloads.size());
        table.printRow({scheme, fmt(100.0 * sum / n, 1) + "%",
                        fmt(100.0 * best, 1) + "%"});
        const double g = geomean(balanced);
        if (scheme == "Banshee")
            bansheeBw = g;
        else
            alloyBw = g;
    }

    std::printf("\nWith balancing on both, Banshee vs Alloy: %+.1f%% "
                "(paper: +12.4%%)\n",
                100.0 * (bansheeBw / alloyBw - 1.0));
    std::printf("Paper: Alloy +5%% avg (max +24%%); Banshee +1%% avg "
                "(max +11%%).\n");
    return bench.finish();
}
