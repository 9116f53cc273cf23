/**
 * @file
 * Figure 7: where Banshee's replacement gains come from. Compares
 * Banshee with LRU replace-on-miss (Unison-style, no footprint),
 * Banshee FBR without counter sampling (CHOP-style), full Banshee,
 * and TDC. Bars: speedup over NoCache (averaged); dots: in-package
 * DRAM traffic.
 *
 * Paper headline (Section 5.5.1): LRU is worst; FBR-no-sample pays
 * ~2x Banshee's metadata traffic; both FBR and sampling are needed.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/report.hh"

using namespace banshee;
using namespace banshee::benchutil;

int
main(int argc, char **argv)
{
    BenchRun bench(argc, argv, "fig7_replacement_ablation",
                   "Figure 7: replacement-policy ablation "
                   "(speedup vs NoCache, in-package traffic)",
                   "Banshee (MICRO'17), Fig. 7");
    const BenchOptions &opt = bench.opt;

    struct Variant
    {
        std::string label;
        SchemeKind kind;
        BansheeConfig::Policy policy;
    };
    const std::vector<Variant> variants = {
        {"Banshee LRU", SchemeKind::Banshee,
         BansheeConfig::Policy::LruEveryMiss},
        {"Banshee FBR no-sample", SchemeKind::Banshee,
         BansheeConfig::Policy::FbrNoSample},
        {"Banshee", SchemeKind::Banshee, BansheeConfig::Policy::Fbr},
        {"TDC", SchemeKind::Tdc, BansheeConfig::Policy::Fbr},
    };

    std::vector<Experiment> exps;
    for (const auto &w : opt.workloads) {
        exps.push_back(
            {w + "/NoCache", configFor(opt.base, w, SchemeKind::NoCache)});
        for (const auto &v : variants) {
            SystemConfig c = configFor(opt.base, w, v.kind);
            c.banshee.policy = v.policy;
            exps.push_back({w + "/" + v.label, c});
        }
    }
    const Sweep &index = bench.run(std::move(exps));

    TablePrinter table({"variant", "speedup", "inPkgBPI", "ctrBPI",
                        "missRate"},
                       14);
    table.printHeader();

    for (const auto &v : variants) {
        std::vector<double> speedups;
        double bpi = 0.0, ctr = 0.0, miss = 0.0;
        for (const auto &w : opt.workloads) {
            const RunResult &r = index.at(w, v.label);
            const RunResult &base = index.at(w, "NoCache");
            speedups.push_back(static_cast<double>(base.cycles) /
                               r.cycles);
            bpi += r.inPkgTotalBpi();
            ctr += r.inPkgBpi(TrafficCat::Counter);
            miss += r.missRate;
        }
        const double n = static_cast<double>(opt.workloads.size());
        table.printRow({v.label, fmt(geomean(speedups)), fmt(bpi / n),
                        fmt(ctr / n, 3), fmt(miss / n, 3)});
    }

    std::printf("\nExpected shape: LRU << FBR-no-sample < Banshee; "
                "no-sample counter traffic ~2x Banshee's.\n");
    return bench.finish();
}
