/**
 * @file
 * Figure 9: sweeping Banshee's sampling coefficient {1, 0.1, 0.01}:
 * (a) DRAM cache miss rate, (b) in-package traffic breakdown with
 * the Counter component split out.
 *
 * Paper headline (Section 5.5.4): the miss rate rises only slightly
 * as the coefficient shrinks, while counter traffic becomes
 * negligible at coefficients <= 0.1.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/report.hh"

using namespace banshee;
using namespace banshee::benchutil;

int
main(int argc, char **argv)
{
    BenchRun bench(argc, argv, "fig9_sampling",
                   "Figure 9: sampling-coefficient sweep (Banshee)",
                   "Banshee (MICRO'17), Fig. 9");
    const BenchOptions &opt = bench.opt;

    const std::vector<double> coeffs = {1.0, 0.1, 0.01};
    std::vector<Experiment> exps;
    for (const auto &w : opt.workloads) {
        for (double coeff : coeffs) {
            SystemConfig c = configFor(opt.base, w, SchemeKind::Banshee);
            c.banshee.samplingCoeff = coeff;
            // Sweep the coefficient only: the replacement threshold
            // stays at the default design point (64 x 0.1 / 2). At
            // coefficient 1.0 the auto-formula would yield 32, which
            // exceeds the 5-bit counter maximum and would disable
            // replacement entirely.
            c.banshee.replaceThreshold = 3.2;
            exps.push_back({w + "/c" + fmt(coeff), c});
        }
    }
    const Sweep &index = bench.run(std::move(exps));

    TablePrinter table({"coeff", "missRate", "HitData", "MissData", "Tag",
                        "Counter", "Replace", "Total"},
                       10);
    table.printHeader();

    for (double coeff : coeffs) {
        double miss = 0, hit = 0, missd = 0, tag = 0, ctr = 0, rep = 0;
        for (const auto &w : opt.workloads) {
            const RunResult &r = index.at(w, "c" + fmt(coeff));
            miss += r.missRate;
            hit += r.inPkgBpi(TrafficCat::HitData);
            missd += r.inPkgBpi(TrafficCat::MissData);
            tag += r.inPkgBpi(TrafficCat::Tag);
            ctr += r.inPkgBpi(TrafficCat::Counter);
            rep += r.inPkgBpi(TrafficCat::Replacement);
        }
        const double n = static_cast<double>(opt.workloads.size());
        table.printRow({fmt(coeff), fmt(miss / n, 3), fmt(hit / n),
                        fmt(missd / n), fmt(tag / n, 3), fmt(ctr / n, 3),
                        fmt(rep / n), fmt((hit + missd + tag + ctr + rep) /
                                          n)});
    }

    std::printf("\nExpected shape: miss rate rises slightly as the "
                "coefficient drops; Counter traffic\nshrinks ~10x per "
                "step and is negligible at <= 0.1.\n");
    return bench.finish();
}
