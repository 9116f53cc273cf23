/**
 * @file
 * Table 6: Banshee's DRAM cache miss rate as associativity sweeps
 * {1, 2, 4, 8} ways.
 *
 * Paper headline (Section 5.5.5): miss rate falls with associativity
 * with quickly diminishing returns above 4 ways (36.1 / 32.5 / 30.9 /
 * 30.7 % in the paper) — which is why 4 ways (2 PTE way bits) is the
 * default design point.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/report.hh"

using namespace banshee;
using namespace banshee::benchutil;

int
main(int argc, char **argv)
{
    BenchRun bench(argc, argv, "table6_associativity",
                   "Table 6: cache miss rate vs. associativity (Banshee)",
                   "Banshee (MICRO'17), Table 6");
    const BenchOptions &opt = bench.opt;

    const std::vector<std::uint32_t> ways = {1, 2, 4, 8};
    std::vector<Experiment> exps;
    for (const auto &w : opt.workloads) {
        for (std::uint32_t ways_ : ways) {
            SystemConfig c = configFor(opt.base, w, SchemeKind::Banshee);
            c.banshee.ways = ways_;
            exps.push_back({w + "/w" + std::to_string(ways_), c});
        }
    }
    const Sweep &index = bench.run(std::move(exps));

    std::vector<std::string> headers = {"ways"};
    for (std::uint32_t w : ways)
        headers.push_back(std::to_string(w) + " way");
    TablePrinter table(headers, 12);
    table.printHeader();

    std::vector<std::string> row = {"miss rate"};
    for (std::uint32_t ways_ : ways) {
        double miss = 0.0;
        for (const auto &w : opt.workloads)
            miss += index.at(w, "w" + std::to_string(ways_)).missRate;
        row.push_back(fmt(100.0 * miss / opt.workloads.size(), 1) + "%");
    }
    table.printRow(row);

    std::printf("\nPaper: 36.1%% / 32.5%% / 30.9%% / 30.7%% — "
                "diminishing returns above 4 ways.\n");
    return bench.finish();
}
