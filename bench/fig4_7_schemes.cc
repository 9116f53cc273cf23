/**
 * @file
 * Figures 4-7 from one scheme grid: every workload under NoCache,
 * Unison, TDC, Alloy 1, Alloy 0.1, Banshee and CacheOnly, plus Fig. 7's
 * two Banshee replacement-policy variants. Each experiment is simulated
 * once, and the four figures are printed from the same sweep.
 *
 * Paper headlines:
 * - Fig. 4 (Section 5.2): Banshee outperforms Unison by 68.9 %, TDC by
 *   26.1 % and Alloy by 15.0 % on the geometric mean; Banshee and
 *   Alloy 0.1 lose on lbm; Banshee beats CacheOnly on some
 *   bandwidth-bound graph codes.
 * - Fig. 5 (Section 5.3): Banshee moves 35.8 % less in-package traffic
 *   than the best baseline; its bars contain no MissData and almost no
 *   Tag component.
 * - Fig. 6 (Section 5.3): Banshee's off-package traffic is 3.1 % lower
 *   than the best Alloy variant, 42.4 % lower than Unison and 43.2 %
 *   lower than TDC.
 * - Fig. 7 (Section 5.5.1): comparing Banshee with LRU replace-on-miss
 *   (Unison-style, no footprint), Banshee FBR without counter sampling
 *   (CHOP-style), full Banshee and TDC, LRU is worst; FBR-no-sample
 *   pays ~2x Banshee's metadata traffic; both FBR and sampling are
 *   needed.
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.hh"
#include "sim/report.hh"

using namespace banshee;
using namespace banshee::benchutil;

namespace {

/** Fig. 7's Banshee variants that the scheme grid does not run. */
const std::vector<std::pair<std::string, BansheeConfig::Policy>>
    kAblations = {
        {"Banshee LRU", BansheeConfig::Policy::LruEveryMiss},
        {"Banshee FBR no-sample", BansheeConfig::Policy::FbrNoSample},
};

/** Figure 4: speedup over NoCache (and MPKI). */
void
printFig4(const BenchOptions &opt, const Sweep &index)
{
    printBanner("Figure 4: speedup normalized to NoCache (MPKI in "
                "parentheses)",
                "Banshee (MICRO'17), Fig. 4");
    const std::vector<std::string> schemes = {
        "Unison", "TDC", "Alloy 1", "Alloy 0.1", "Banshee", "CacheOnly"};
    std::vector<std::string> headers = {"workload"};
    for (const auto &s : schemes)
        headers.push_back(s);
    TablePrinter table(headers, 16);
    table.printHeader();

    std::map<std::string, std::vector<double>> speedups;
    for (const auto &w : opt.workloads) {
        const double baseCycles =
            static_cast<double>(index.at(w, "NoCache").cycles);
        std::vector<std::string> row = {w};
        for (const auto &s : schemes) {
            const RunResult &r = index.at(w, s);
            const double speedup = baseCycles / r.cycles;
            speedups[s].push_back(speedup);
            row.push_back(fmt(speedup) + " (" + fmt(r.mpki, 1) + ")");
        }
        table.printRow(row);
    }

    table.printRule();
    std::vector<std::string> row = {"geo-mean"};
    for (const auto &s : schemes)
        row.push_back(fmt(geomean(speedups[s])));
    table.printRow(row);

    // The paper's headline ratios.
    const double banshee = geomean(speedups["Banshee"]);
    std::printf("\nBanshee vs Unison   : %+.1f%%  (paper: +68.9%%)\n",
                100.0 * (banshee / geomean(speedups["Unison"]) - 1.0));
    std::printf("Banshee vs TDC      : %+.1f%%  (paper: +26.1%%)\n",
                100.0 * (banshee / geomean(speedups["TDC"]) - 1.0));
    const double alloyBest = std::max(geomean(speedups["Alloy 1"]),
                                      geomean(speedups["Alloy 0.1"]));
    std::printf("Banshee vs Alloy    : %+.1f%%  (paper: +15.0%% vs best "
                "Alloy)\n",
                100.0 * (banshee / alloyBest - 1.0));
}

/** Figure 5: in-package DRAM traffic, broken into HitData / MissData /
 *  Tag / Replacement. */
void
printFig5(const BenchOptions &opt, const Sweep &index)
{
    printBanner("Figure 5: in-package DRAM traffic breakdown "
                "(bytes/instruction)",
                "Banshee (MICRO'17), Fig. 5");
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
}

/** Figure 6: off-package DRAM traffic. */
void
printFig6(const BenchOptions &opt, const Sweep &index)
{
    printBanner("Figure 6: off-package DRAM traffic "
                "(bytes/instruction)",
                "Banshee (MICRO'17), Fig. 6");
    const auto schemes = std::vector<std::string>{
        "Unison", "TDC", "Alloy 1", "Alloy 0.1", "Banshee"};
    std::vector<std::string> headers = {"workload"};
    for (const auto &s : schemes)
        headers.push_back(s);
    TablePrinter table(headers, 12);
    table.printHeader();

    std::map<std::string, double> sums;
    for (const auto &w : opt.workloads) {
        std::vector<std::string> row = {w};
        for (const auto &s : schemes) {
            const double bpi = index.at(w, s).offPkgTotalBpi();
            row.push_back(fmt(bpi));
            sums[s] += bpi;
        }
        table.printRow(row);
    }
    table.printRule();
    std::vector<std::string> row = {"average"};
    for (const auto &s : schemes)
        row.push_back(fmt(sums[s] / opt.workloads.size()));
    table.printRow(row);

    const double banshee = sums["Banshee"];
    std::printf("\nBanshee vs Alloy 1 : %+.1f%%  (paper: -3.1%%)\n",
                100.0 * (banshee / sums["Alloy 1"] - 1.0));
    std::printf("Banshee vs Unison  : %+.1f%%  (paper: -42.4%%)\n",
                100.0 * (banshee / sums["Unison"] - 1.0));
    std::printf("Banshee vs TDC     : %+.1f%%  (paper: -43.2%%)\n",
                100.0 * (banshee / sums["TDC"] - 1.0));
}

/** Figure 7: where Banshee's replacement gains come from. Bars: speedup
 *  over NoCache (averaged); dots: in-package DRAM traffic. */
void
printFig7(const BenchOptions &opt, const Sweep &index)
{
    printBanner("Figure 7: replacement-policy ablation "
                "(speedup vs NoCache, in-package traffic)",
                "Banshee (MICRO'17), Fig. 7");
    std::vector<std::string> variants;
    for (const auto &a : kAblations)
        variants.push_back(a.first);
    variants.push_back("Banshee");
    variants.push_back("TDC");

    // TablePrinter's 18-wide first column is narrower than "Banshee FBR
    // no-sample", so this table sizes its own: the longest variant and
    // a gap, then 13 per value column, which keeps the rule's length.
    int labelWidth = 0;
    for (const auto &v : variants)
        labelWidth = std::max(labelWidth, static_cast<int>(v.size()) + 1);
    auto printRow = [labelWidth](const std::vector<std::string> &cells) {
        std::printf("%-*s", labelWidth, cells[0].c_str());
        for (std::size_t i = 1; i < cells.size(); ++i)
            std::printf("%-13s", cells[i].c_str());
        std::printf("\n");
    };
    const std::vector<std::string> headers = {"variant", "speedup",
                                              "inPkgBPI", "ctrBPI",
                                              "missRate"};
    printRow(headers);
    std::printf("%s\n",
                std::string(labelWidth + 13 * (headers.size() - 1), '-')
                    .c_str());

    for (const auto &v : variants) {
        std::vector<double> speedups;
        double bpi = 0.0, ctr = 0.0, miss = 0.0;
        for (const auto &w : opt.workloads) {
            const RunResult &r = index.at(w, v);
            const RunResult &base = index.at(w, "NoCache");
            speedups.push_back(static_cast<double>(base.cycles) /
                               r.cycles);
            bpi += r.inPkgTotalBpi();
            ctr += r.inPkgBpi(TrafficCat::Counter);
            miss += r.missRate;
        }
        const double n = static_cast<double>(opt.workloads.size());
        printRow({v, fmt(geomean(speedups)), fmt(bpi / n),
                  fmt(ctr / n, 3), fmt(miss / n, 3)});
    }

    std::printf("\nExpected shape: LRU << FBR-no-sample < Banshee; "
                "no-sample counter traffic ~2x Banshee's.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    BenchRun bench(argc, argv, "fig4_7_schemes",
                   "Figures 4-7: cache schemes and Banshee's replacement "
                   "policy over one scheme grid",
                   "Banshee (MICRO'17), Figs. 4-7");
    const BenchOptions &opt = bench.opt;

    std::vector<Experiment> exps = schemeGrid(opt);
    for (const auto &w : opt.workloads) {
        for (const auto &[label, policy] : kAblations) {
            SystemConfig c = configFor(opt.base, w, SchemeKind::Banshee);
            c.banshee.policy = policy;
            exps.push_back({w + "/" + label, c});
        }
    }
    const Sweep &index = bench.run(std::move(exps));

    printFig4(opt, index);
    printFig5(opt, index);
    printFig6(opt, index);
    printFig7(opt, index);
    return bench.finish();
}
