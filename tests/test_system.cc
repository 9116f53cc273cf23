/**
 * @file
 * Integration and property tests: every scheme runs end-to-end on a
 * tiny system without losing a memory response; the lazy-coherence
 * invariant holds under the full machine (checkStaleInvariant); the
 * bounding baselines bound; results are deterministic; BenchRun
 * writes every sweep a bench runs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_util.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "sim/system_config.hh"

namespace banshee {
namespace {

SystemConfig
tiny(SchemeKind kind, const std::string &workload = "libquantum")
{
    SystemConfig c = SystemConfig::testDefault();
    c.workload = workload;
    c.withScheme(kind);
    if (kind == SchemeKind::Hma) {
        c.hma.epoch = usToCycles(100.0);
        c.hma.baseCost = usToCycles(5.0);
    }
    return c;
}

class AllSchemesTest : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(AllSchemesTest, RunsToCompletionOnTinySystem)
{
    SystemConfig c = tiny(GetParam());
    System system(c);
    const RunResult r = system.run();
    // Every core retired its measured instructions (each phase limit
    // may overshoot by at most one op's instruction group, so the
    // measured delta can fall short by that much per core).
    EXPECT_GE(r.instructions,
              static_cast<std::uint64_t>(c.numCores) *
                      c.measureInstrPerCore -
                  c.numCores * 256ull);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.dramCacheAccesses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, AllSchemesTest,
    ::testing::Values(SchemeKind::NoCache, SchemeKind::CacheOnly,
                      SchemeKind::Alloy, SchemeKind::Unison,
                      SchemeKind::Tdc, SchemeKind::Hma,
                      SchemeKind::Banshee),
    [](const ::testing::TestParamInfo<SchemeKind> &info) {
        std::string n = schemeKindName(info.param);
        for (auto &ch : n)
            if (!isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return n;
    });

TEST(SystemIntegration, NoCacheMissesEverythingCacheOnlyNothing)
{
    {
        System s(tiny(SchemeKind::NoCache));
        EXPECT_DOUBLE_EQ(s.run().missRate, 1.0);
    }
    {
        System s(tiny(SchemeKind::CacheOnly));
        EXPECT_DOUBLE_EQ(s.run().missRate, 0.0);
    }
}

TEST(SystemIntegration, BansheeCachesACacheableWorkingSet)
{
    // libquantum at test scale fits the DRAM cache comfortably; after
    // warmup Banshee must be serving most accesses from in-package.
    SystemConfig c = tiny(SchemeKind::Banshee);
    System s(c);
    // autoWarmup (testDefault inherits it from scaledDefault) raises
    // the warmup budget to cover full sweeps of the streamed region,
    // so the measured window starts from steady-state residency.
    EXPECT_GT(s.config().warmupInstrPerCore, c.warmupInstrPerCore);
    const RunResult r = s.run();
    EXPECT_LT(r.missRate, 0.1);
    EXPECT_GT(r.inPkgBpi(TrafficCat::HitData), 0.0);
}

TEST(SystemIntegration, StaleInvariantHoldsUnderFullMachine)
{
    // testDefault() enables checkStaleInvariant: any request whose
    // stale mapping the Tag Buffer fails to correct panics. Running
    // a replacement-heavy workload to completion is the assertion.
    SystemConfig c = tiny(SchemeKind::Banshee, "omnetpp");
    ASSERT_TRUE(c.banshee.checkStaleInvariant);
    System s(c);
    const RunResult r = s.run();
    EXPECT_GT(r.dramCacheAccesses, 0u);
}

TEST(SystemIntegration, CacheOnlyBeatsNoCacheOnHotWorkload)
{
    System a(tiny(SchemeKind::NoCache));
    System b(tiny(SchemeKind::CacheOnly));
    const Cycle noCache = a.run().cycles;
    const Cycle cacheOnly = b.run().cycles;
    EXPECT_LT(cacheOnly, noCache);
}

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    SystemConfig c = tiny(SchemeKind::Banshee);
    System a(c), b(c);
    const RunResult ra = a.run(), rb = b.run();
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.instructions, rb.instructions);
    EXPECT_EQ(ra.dramCacheMisses, rb.dramCacheMisses);
    for (std::size_t cat = 0; cat < kNumTrafficCats; ++cat) {
        EXPECT_EQ(ra.inPkgBytes[cat], rb.inPkgBytes[cat]);
        EXPECT_EQ(ra.offPkgBytes[cat], rb.offPkgBytes[cat]);
    }
}

TEST(SystemIntegration, SeedChangesResults)
{
    SystemConfig c = tiny(SchemeKind::Banshee);
    System a(c);
    c.seed = 777;
    System b(c);
    EXPECT_NE(a.run().cycles, b.run().cycles);
}

TEST(SystemIntegration, BansheeDemandPathHasNoTagTraffic)
{
    // The headline property (Table 1): Banshee's demand accesses move
    // no tag bytes; only writeback probes and counter samples touch
    // the tag rows. Compare against Alloy, where every access does.
    System banshee(tiny(SchemeKind::Banshee));
    System alloy(tiny(SchemeKind::Alloy));
    const RunResult rb = banshee.run();
    const RunResult ra = alloy.run();
    const double bansheeTag = rb.inPkgBpi(TrafficCat::Tag);
    const double alloyTag = ra.inPkgBpi(TrafficCat::Tag);
    EXPECT_LT(bansheeTag, alloyTag * 0.5);
}

TEST(SystemIntegration, PteUpdatesTriggeredByReplacementChurn)
{
    SystemConfig c = tiny(SchemeKind::Banshee, "omnetpp");
    c.banshee.tagBuffer.entries = 128; // small buffer: frequent flushes
    System s(c);
    const RunResult r = s.run();
    EXPECT_GT(r.pteUpdateRuns, 0u);
    EXPECT_GT(r.tlbShootdowns, 0u);
    EXPECT_EQ(s.pageTable().staleCount(), s.pageTable().staleCount());
}

TEST(SystemIntegration, LargePagesRunEndToEnd)
{
    SystemConfig c = tiny(SchemeKind::Banshee, "pagerank");
    // 2 MB pages need a larger partition: 64 MB -> 8 frames per MC.
    c.mem.inPkgCapacity = 64ull << 20;
    c.footprintScale = 0.25;
    c.banshee.pageBits = kLargePageBits;
    c.banshee.samplingCoeff = 0.001;
    c.banshee.checkStaleInvariant = false; // TLB is 4K-grained
    c.mem.mcStripeBits = kLargePageBits;
    c.tlb.missLatency = 0;
    System s(c);
    const RunResult r = s.run();
    EXPECT_GT(r.dramCacheAccesses, 0u);
}

TEST(SystemIntegration, LargePagesAcrossStripedMcsFailFast)
{
    // 2 MB pages with the default 4 KB MC striping would shred every
    // cache page across all four controllers; the System constructor
    // must reject the config with an actionable error instead of
    // tripping deep asserts (or silently misplacing pages).
    SystemConfig c = tiny(SchemeKind::Banshee, "pagerank");
    c.mem.inPkgCapacity = 64ull << 20;
    c.banshee.pageBits = kLargePageBits;
    ASSERT_GT(c.mem.numMcs, 1u);
    ASSERT_LT(c.mem.mcStripeBits, kLargePageBits);
    EXPECT_EXIT(System s(c), ::testing::ExitedWithCode(1),
                "banshee.pageBits");
}

TEST(SystemIntegration, LargePagesWithUndividableSlicesFailFast)
{
    // Resize slices partition each controller's sets; 2 MB pages on a
    // 64 MB cache leave 2 sets per MC, which cannot split over 8
    // slices. Must fail fast with the config error, not an internal
    // assert inside the resize domain.
    SystemConfig c = tiny(SchemeKind::Banshee, "pagerank");
    c.mem.inPkgCapacity = 64ull << 20;
    c.banshee.pageBits = kLargePageBits;
    c.mem.mcStripeBits = kLargePageBits;
    c.withResizeStep(1, 4);
    c.resize.hash.numSlices = 8;
    EXPECT_EXIT(System s(c), ::testing::ExitedWithCode(1),
                "divide into 8 slices");
}

TEST(SystemIntegration, LargePagesWithResizeRunValidlyConfigured)
{
    // The positive path the two fail-fast checks guard: one MC keeps
    // a 2 MB-paged 64 MB cache at 8 sets, which does split over 8
    // slices — resize and large pages compose.
    SystemConfig c = tiny(SchemeKind::Banshee, "pagerank");
    c.mem.numMcs = 1;
    c.mem.inPkgCapacity = 64ull << 20;
    c.footprintScale = 0.25;
    c.banshee.pageBits = kLargePageBits;
    c.banshee.samplingCoeff = 0.001;
    c.banshee.checkStaleInvariant = false; // TLB is 4K-grained
    c.tlb.missLatency = 0;
    c.withResizeStep(1, 4);
    System s(c);
    const RunResult r = s.run();
    s.resizeController()->stopEpochs();
    s.eventQueue().run();
    EXPECT_GT(r.dramCacheAccesses, 0u);
    EXPECT_EQ(s.resizeController()->activeSlices(), 4u);
    s.resizeController()->verifyResidencyConsistent();
}

TEST(SystemIntegration, BatmanRunsAndBypassActivatesUnderPressure)
{
    SystemConfig c = tiny(SchemeKind::Banshee, "libquantum");
    c.enableBatman = true;
    c.batman.epoch = usToCycles(20.0);
    System s(c);
    const RunResult r = s.run();
    EXPECT_GT(r.dramCacheAccesses, 0u);
}

TEST(SystemIntegration, MeasurePhaseExcludesWarmup)
{
    SystemConfig c = tiny(SchemeKind::NoCache);
    c.warmupInstrPerCore = 10'000;
    c.measureInstrPerCore = 20'000;
    System s(c);
    const RunResult r = s.run();
    // Measured instructions reflect only the measure phase.
    EXPECT_NEAR(static_cast<double>(r.instructions),
                static_cast<double>(c.numCores) * c.measureInstrPerCore,
                c.numCores * 300.0);
}

TEST(Runner, ParallelSweepPreservesOrderAndDeterminism)
{
    SystemConfig base = SystemConfig::testDefault();
    base.warmupInstrPerCore = 5'000;
    base.measureInstrPerCore = 10'000;
    auto exps = schemeSweep(base, "libquantum");
    const auto seq = runSweep(exps, 1, nullptr, false);
    const auto par = runSweep(exps, 4, nullptr, false);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].cycles, par[i].cycles) << exps[i].label;
        EXPECT_EQ(seq[i].scheme, par[i].scheme);
    }
}

std::size_t
countOf(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (auto pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1))
        ++n;
    return n;
}

// A bench whose second sweep is built from the first's results (like
// ext_energy's power cap) must write both sweeps, each result with its
// host perf, and report its verdict through the exit code.
TEST(BenchRun, JsonHasHostPerfForEveryResultOfEverySweep)
{
    const std::string path = ::testing::TempDir() + "bench_run.json";
    std::vector<std::string> args = {"bench_run", "--threads", "2",
                                     "--json", path, "--host-perf"};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    benchutil::BenchRun bench(static_cast<int>(argv.size()), argv.data(),
                              "bench_run", "title", "reference");
    ASSERT_TRUE(bench.opt.hostPerf);

    const benchutil::Sweep &first = bench.run(
        {{"libquantum/NoCache", tiny(SchemeKind::NoCache)},
         {"libquantum/Banshee", tiny(SchemeKind::Banshee)}});
    bench.run({{"libquantum/Tdc", tiny(SchemeKind::Tdc)}});
    // The first sweep's reference survives the second run().
    EXPECT_EQ(first.at("libquantum", "Banshee").scheme, "Banshee");
    // A timing-only rerun is not written.
    bench.rerun({{"libquantum/Rerun", tiny(SchemeKind::Tdc)}}, 1);

    EXPECT_EQ(bench.finish(), 0);
    std::ifstream in(path);
    std::stringstream json;
    json << in.rdbuf();
    EXPECT_EQ(countOf(json.str(), "\"label\""), 3u);
    EXPECT_EQ(countOf(json.str(), "\"hostPerf\""), 3u);
    EXPECT_EQ(countOf(json.str(), "\"sweepHostPerf\""), 1u);
    EXPECT_EQ(countOf(json.str(), "libquantum/Tdc"), 1u);
    EXPECT_EQ(countOf(json.str(), "libquantum/Rerun"), 0u);

    EXPECT_EQ(bench.finish(false), 1);
    std::remove(path.c_str());
}

// Sweep::at and the JSON readers key results by label, so a label that
// repeats, within one sweep or across the sweeps of one BenchRun, would
// shadow a result: run() refuses it before simulating anything.
TEST(BenchRunDeathTest, RepeatedLabelPanics)
{
    std::vector<std::string> args = {"bench_run", "--threads", "1"};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    benchutil::BenchRun bench(static_cast<int>(argv.size()), argv.data(),
                              "bench_run", "title", "reference");
    const std::vector<Experiment> twice = {
        {"libquantum/NoCache", tiny(SchemeKind::NoCache)},
        {"libquantum/NoCache", tiny(SchemeKind::Banshee)}};
    EXPECT_DEATH(bench.run(twice), "label 'libquantum/NoCache'");

    bench.run({{"libquantum/NoCache", tiny(SchemeKind::NoCache)}});
    EXPECT_DEATH(
        bench.run({{"libquantum/NoCache", tiny(SchemeKind::Banshee)}}),
        "label 'libquantum/NoCache'");
}

TEST(Runner, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
}

TEST(Runner, GeomeanHandlesEmptyAndZeroWithoutNan)
{
    // Degenerate inputs are defined, finite results — not NaN/UB.
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({0.0}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({0.0, 4.0, 9.0}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({5.0}), 5.0);
}

} // namespace
} // namespace banshee
