/**
 * @file
 * Table 1: measured per-access behavior of each DRAM cache design.
 *
 * The paper's Table 1 is analytic; this bench measures the same
 * quantities from the simulator. Two micro-regimes isolate the rows:
 *   "resident" — a footprint that fits in the cache, so accesses are
 *                ~all hits: in-package bytes/access shows hit traffic;
 *   "thrash"   — a much larger uniform footprint, so accesses are
 *                ~all misses: speculative/probe traffic and the
 *                replacement traffic per miss become visible.
 * LLC-miss service latency is reported for both regimes (the paper's
 * ~1x vs ~2x column). HMA is included (the paper's table has it; its
 * figures do not).
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/report.hh"

using namespace banshee;
using namespace banshee::benchutil;

int
main(int argc, char **argv)
{
    BenchRun bench(argc, argv, "table1_behavior",
                   "Table 1: per-scheme DRAM cache behavior (measured)",
                   "Banshee (MICRO'17), Table 1");

    struct Row
    {
        std::string label;
        SchemeKind kind;
        double alloyProb = 1.0;
    };
    const std::vector<Row> schemes = {
        {"Unison", SchemeKind::Unison},     {"Alloy", SchemeKind::Alloy},
        {"TDC", SchemeKind::Tdc},           {"HMA", SchemeKind::Hma},
        {"Banshee", SchemeKind::Banshee},
    };

    // "resident": hot zipf working set well inside the 128 MB cache.
    // "thrash": uniform sweep far beyond it.
    std::vector<Experiment> exps;
    for (const auto &s : schemes) {
        // libquantum fits in-cache by construction; milc is sparse and
        // large, so it misses at a high rate.
        for (const auto &[regime, workload] :
             {std::pair{"resident", "libquantum"},
              std::pair{"thrash", "milc"}}) {
            SystemConfig c = configFor(bench.opt.base, workload, s.kind);
            c.withAlloyFillProb(s.alloyProb);
            exps.push_back({std::string(regime) + "/" + s.label, c});
        }
    }
    const Sweep &index = bench.run(std::move(exps));

    TablePrinter table({"scheme", "hit B/acc", "hitLat", "miss B/acc",
                        "missLat", "repl B/miss"},
                       13);
    table.printHeader();

    for (const auto &s : schemes) {
        const RunResult &hitR = index.at("resident", s.label);
        const RunResult &missR = index.at("thrash", s.label);

        // Hit regime: in-package bytes per access net of replacement.
        const double hitBytes =
            (hitR.inPkgBpi(TrafficCat::HitData) +
             hitR.inPkgBpi(TrafficCat::MissData) +
             hitR.inPkgBpi(TrafficCat::Tag) +
             hitR.inPkgBpi(TrafficCat::Counter)) *
            hitR.instructions / std::max<std::uint64_t>(1,
                hitR.dramCacheAccesses);

        const double missBytes =
            (missR.inPkgBpi(TrafficCat::MissData) +
             missR.inPkgBpi(TrafficCat::Tag) +
             missR.inPkgBpi(TrafficCat::Counter)) *
            missR.instructions / std::max<std::uint64_t>(1,
                missR.dramCacheMisses);

        const double replBytes =
            (missR.inPkgBpi(TrafficCat::Replacement) +
             missR.offPkgBpi(TrafficCat::Fill) +
             missR.offPkgBpi(TrafficCat::Writeback)) *
            missR.instructions / std::max<std::uint64_t>(1,
                missR.dramCacheMisses);

        table.printRow({s.label, fmt(hitBytes, 0),
                        fmt(hitR.avgFetchLatency, 0) + "cy",
                        fmt(missBytes, 0),
                        fmt(missR.avgFetchLatency, 0) + "cy",
                        fmt(replBytes, 0)});
    }

    std::printf("\nPaper's Table 1: Unison hit >=128B, Alloy 96B, "
                "TDC/HMA/Banshee 64B (0 extra bytes on top of data);\n"
                "miss latency ~2x for probing schemes (Unison/Alloy), "
                "~1x for PTE/TLB-mapped ones (TDC/HMA/Banshee).\n");
    return bench.finish();
}
