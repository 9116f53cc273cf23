/**
 * @file
 * Domain scenario 1: a throughput-computing (graph analytics) study —
 * the workloads in-package DRAM products target (paper Section 1).
 * Runs the full graph suite under every DRAM cache design and prints
 * a compact comparison: speedup over NoCache, DRAM cache miss rate,
 * and the traffic split across the two memories.
 *
 * Usage: graph_study [--quick]
 */

#include <cstdio>
#include <string>

#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/system_config.hh"
#include "workload/workloads.hh"

using namespace banshee;

int
main(int argc, char **argv)
{
    SystemConfig base = SystemConfig::scaledDefault();
    if (argc > 1 && std::string(argv[1]) == "--quick") {
        base.warmupInstrPerCore /= 4;
        base.measureInstrPerCore /= 4;
    }

    printBanner("Graph analytics study: all DRAM cache designs on the "
                "multi-threaded graph suite",
                "Banshee (MICRO'17), Sections 1 and 5.2");

    std::vector<Experiment> exps;
    for (const auto &w : WorkloadFactory::graphNames()) {
        for (auto &e : schemeSweep(base, w))
            exps.push_back(std::move(e));
    }
    const auto results = runSweep(exps);

    TablePrinter table({"workload", "scheme", "speedup", "missRate",
                        "inPkg B/i", "offPkg B/i"},
                       12);
    table.printHeader();

    // Locate the NoCache baseline of each workload for normalization.
    std::map<std::string, Cycle> baseline;
    for (std::size_t i = 0; i < exps.size(); ++i) {
        if (results[i].scheme == "NoCache")
            baseline[results[i].workload] = results[i].cycles;
    }
    for (std::size_t i = 0; i < exps.size(); ++i) {
        const RunResult &r = results[i];
        if (r.scheme == "NoCache")
            continue;
        table.printRow({r.workload, r.scheme,
                        fmt(static_cast<double>(baseline[r.workload]) /
                            r.cycles),
                        fmt(r.missRate, 3), fmt(r.inPkgTotalBpi()),
                        fmt(r.offPkgTotalBpi())});
    }

    std::printf("\nReading guide: graph codes are bandwidth-bound; the "
                "design that moves the fewest\nbytes per instruction "
                "wins. Banshee's demand path moves exactly 64 B per "
                "access\nand replacement is throttled by the "
                "frequency threshold.\n");
    return 0;
}
