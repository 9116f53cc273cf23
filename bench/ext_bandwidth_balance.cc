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
    BenchOptions opt = parseArgs(argc, argv, "ext_bandwidth_balance");
    printBanner("Section 5.4.2: BATMAN bandwidth balancing on Alloy "
                "and Banshee",
                "Banshee (MICRO'17), Section 5.4.2");

    std::vector<Experiment> exps;
    for (const auto &w : opt.workloads) {
        for (const bool batman : {false, true}) {
            const std::string suffix = batman ? "+BW" : "";
            {
                SystemConfig c = opt.base;
                c.workload = w;
                c.withScheme(SchemeKind::Alloy);
                c.withAlloyFillProb(0.1);
                c.enableBatman = batman;
                exps.push_back({w + "/Alloy" + suffix, c});
            }
            {
                SystemConfig c = opt.base;
                c.workload = w;
                c.withScheme(SchemeKind::Banshee);
                c.enableBatman = batman;
                exps.push_back({w + "/Banshee" + suffix, c});
            }
        }
    }
    SweepPerf perf;
    const auto results = runExperiments(exps, opt.threads, true, &perf);
    const ResultIndex index(exps, results);

    TablePrinter table({"scheme", "avg gain", "max gain"}, 14);
    table.printHeader();

    double bansheeBw = 0.0, alloyBw = 0.0;
    for (const std::string scheme : {"Alloy", "Banshee"}) {
        double sum = 0.0, best = -1.0;
        std::vector<double> balanced, plain;
        for (const auto &w : opt.workloads) {
            const RunResult &off = index.at(w, scheme);
            const RunResult &on = index.at(w, scheme + "+BW");
            const double gain =
                static_cast<double>(off.cycles) / on.cycles - 1.0;
            sum += gain;
            best = std::max(best, gain);
            balanced.push_back(1.0 / on.cycles);
            plain.push_back(1.0 / off.cycles);
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
    maybeWriteJson(opt, "ext_bandwidth_balance", exps, results, &perf);
    return 0;
}
