/**
 * @file
 * google-benchmark microbenchmarks of the library's hot data
 * structures: Tag Buffer, FBR directory, alias-table sampling, SRAM
 * cache lookups and back-invalidation, DRAM channel scheduling and
 * workload generation.
 * These guard the simulator's own performance (simulation speed), not
 * the paper's results.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <functional>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "common/alias_table.hh"
#include "common/event_queue.hh"
#include "common/rng.hh"
#include "core/banshee.hh"
#include "core/fbr_directory.hh"
#include "core/tag_buffer.hh"
#include "dram/dram_model.hh"
#include "os/os_services.hh"
#include "os/page_table.hh"
#include "workload/pattern.hh"

using namespace banshee;

static void
BM_RngNext(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

static void
BM_AliasTableSample(benchmark::State &state)
{
    AliasTable table(zipfWeights(1 << 16, 0.9));
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(table.sample(rng));
}
BENCHMARK(BM_AliasTableSample);

static void
BM_TagBufferLookup(benchmark::State &state)
{
    TagBuffer tb(TagBufferParams{}, "bm");
    Rng rng(3);
    for (std::uint32_t i = 0; i < 512; ++i)
        tb.insertClean(i * 97, PageMapping{true, 1});
    PageNum p = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tb.lookup(p * 97));
        p = (p + 1) & 1023;
    }
}
BENCHMARK(BM_TagBufferLookup);

static void
BM_TagBufferRemapHarvest(benchmark::State &state)
{
    for (auto _ : state) {
        TagBuffer tb(TagBufferParams{}, "bm");
        for (std::uint32_t i = 0; i < 700; ++i)
            tb.insertRemap(i * 31, PageMapping{true, 0});
        benchmark::DoNotOptimize(tb.harvest());
    }
}
BENCHMARK(BM_TagBufferRemapHarvest);

static void
BM_FbrDirectoryAccess(benchmark::State &state)
{
    FbrParams p;
    p.numSets = 2048;
    FbrDirectory dir(p);
    std::uint32_t set = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dir.findCached(set, set * 5));
        benchmark::DoNotOptimize(dir.minCountWay(set));
        set = (set + 1) & 2047;
    }
}
BENCHMARK(BM_FbrDirectoryAccess);

static void
BM_SramCacheLookup(benchmark::State &state)
{
    CacheParams p;
    p.sizeBytes = 8ull << 20;
    p.ways = 16;
    Cache cache(p);
    Rng rng(4);
    for (int i = 0; i < 100000; ++i) {
        const LineAddr line = rng.nextBelow(1 << 20);
        if (!cache.contains(line))
            cache.insert(line, false);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cache.lookup(rng.nextBelow(1 << 20), false));
}
BENCHMARK(BM_SramCacheLookup);

namespace {

/** Backend that completes every fetch at once and drops writebacks. */
class InstantBackend : public MemBackend
{
  public:
    void
    fetchLine(LineAddr, const MappingInfo &, CoreId, MissDoneFn done) override
    {
        done(0);
    }

    void writebackLine(LineAddr) override { ++writebacks; }

    std::uint64_t writebacks = 0;
};

} // namespace

static void
BM_HierarchyBackInvalidate(benchmark::State &state)
{
    // 64 cores under a miss stream: a shared region twice the L3 and
    // a wide one, a quarter of them stores. Nearly every access
    // evicts an L2 line (back-invalidating L1s) and an L3 line
    // (back-invalidating its sharers' L2s and L1s).
    HierarchyParams p;
    p.numCores = 64;
    p.l2Size = 32 * 1024;
    p.l3Size = 2ull << 20;
    InstantBackend backend;
    CacheHierarchy h(p, backend);
    Rng rng(7);
    CoreId core = 0;
    auto step = [&] {
        const LineAddr line = rng.nextBool(0.5)
                                  ? rng.nextBelow(1 << 16)
                                  : (1ull << 20) + rng.nextBelow(1 << 22);
        const Addr addr = line * kLineBytes;
        if (rng.nextBool(0.1))
            h.fetch(core, addr, MappingInfo{}, nullptr);
        else
            h.access(core, addr, rng.nextBool(0.25), MappingInfo{}, nullptr);
        core = (core + 1) % p.numCores;
    };
    for (int i = 0; i < 100000; ++i)
        step();
    for (auto _ : state)
        step();
    benchmark::DoNotOptimize(backend.writebacks);
}
BENCHMARK(BM_HierarchyBackInvalidate);

static void
BM_DramChannelThroughput(benchmark::State &state)
{
    // Measures simulated-requests-per-second of the DRAM model.
    for (auto _ : state) {
        EventQueue eq;
        DramModel dram(eq, DramTiming{}, 1, "bm");
        Rng rng(5);
        for (int i = 0; i < 1000; ++i) {
            DramRequest req;
            req.addr = rng.nextBelow(1 << 28) & ~63ull;
            req.bytes = 64;
            dram.access(0, std::move(req));
        }
        eq.run();
        benchmark::DoNotOptimize(eq.now());
    }
}
BENCHMARK(BM_DramChannelThroughput);

static void
BM_DramChannelThroughputQos(benchmark::State &state)
{
    // The same burst through the QoS scheduler: credit-aware FR-FCFS
    // over a 64-entry window, with shares set so credits can bind.
    std::array<double, kMaxTenants> shares{};
    shares[0] = 0.5;
    shares[1] = 0.25;
    for (auto _ : state) {
        EventQueue eq;
        DramModel dram(eq, DramTiming{}, 1, "bm");
        DramQosConfig qc;
        qc.enabled = true;
        qc.window = 64;
        dram.setQosConfig(qc);
        dram.setQosShares(shares);
        Rng rng(5);
        for (int i = 0; i < 1000; ++i) {
            DramRequest req;
            req.addr = rng.nextBelow(1 << 28) & ~63ull;
            req.bytes = 64;
            req.tenant = static_cast<TenantId>(i % 2);
            dram.access(0, std::move(req));
        }
        eq.run();
        benchmark::DoNotOptimize(eq.now());
    }
}
BENCHMARK(BM_DramChannelThroughputQos);

static void
BM_DramChannelSteadyStream(benchmark::State &state)
{
    // A closed loop like stream-unison's: 16 sequential streams, each
    // keeping 4 reads in flight and issuing the next when one lands;
    // every other completion also posts a write-back on the stream's
    // own write cursor. The queues hold tens of keys throughout and
    // writes drain in batches, where the throughput benches above
    // queue 1000 requests at once.
    constexpr int kStreams = 16;
    constexpr int kInFlight = 4;
    constexpr int kReads = 4000;
    for (auto _ : state) {
        EventQueue eq;
        DramModel dram(eq, DramTiming{}, 1, "bm");
        std::array<Addr, kStreams> readPos{};
        std::array<Addr, kStreams> writePos{};
        for (int s = 0; s < kStreams; ++s) {
            readPos[s] = static_cast<Addr>(s) << 24;
            writePos[s] = readPos[s] + (1ull << 23);
        }
        int issued = 0;
        int completed = 0;
        std::function<void(int)> issueRead = [&](int s) {
            if (issued == kReads)
                return;
            ++issued;
            DramRequest req;
            req.addr = readPos[s];
            readPos[s] += 64;
            req.bytes = 64;
            req.done = [&, s](Cycle) {
                if (++completed % 2 == 0) {
                    DramRequest wb;
                    wb.addr = writePos[s];
                    writePos[s] += 64;
                    wb.bytes = 64;
                    wb.isWrite = true;
                    dram.access(0, std::move(wb));
                }
                issueRead(s);
            };
            dram.access(0, std::move(req));
        };
        for (int k = 0; k < kInFlight; ++k)
            for (int s = 0; s < kStreams; ++s)
                issueRead(s);
        eq.run();
        benchmark::DoNotOptimize(eq.now());
    }
}
BENCHMARK(BM_DramChannelSteadyStream);

static void
BM_ZipfPatternNext(benchmark::State &state)
{
    ZipfPagePattern pattern(0, 1 << 18, 0.85, 2, 0.1, 3);
    Rng rng(6);
    for (auto _ : state)
        benchmark::DoNotOptimize(pattern.next(rng).addr);
}
BENCHMARK(BM_ZipfPatternNext);

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t sum = 0;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(i, [&sum, i] { sum += i; });
        eq.run();
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_EventQueueScheduleRun);

static void
BM_EventQueueOneShotSteadyState(benchmark::State &state)
{
    // Steady-state completion traffic: each firing schedules the
    // next, so the pooled one-shot node is recycled every iteration
    // (the pattern DRAM done-callbacks produce).
    EventQueue eq;
    std::uint64_t fired = 0;
    std::function<void()> chain = [&] {
        fired++;
        eq.schedule(eq.now() + 3, chain);
    };
    eq.schedule(1, chain);
    for (auto _ : state) {
        eq.run(eq.now() + 3000);
        benchmark::DoNotOptimize(fired);
    }
}
BENCHMARK(BM_EventQueueOneShotSteadyState);

static void
BM_TickEventKickRearm(benchmark::State &state)
{
    // The DRAM-kick pattern: one intrusive event per channel,
    // repeatedly superseded to earlier cycles and re-armed from its
    // own callback. Measures arm/supersede/fire cost with no
    // allocation per arm.
    EventQueue eq;
    std::uint64_t kicks = 0;
    TickEvent kick;
    kick.setCallback([&] {
        kicks++;
        eq.schedule(kick, eq.now() + 8);
    });
    eq.schedule(kick, 4);
    for (auto _ : state) {
        // Supersede the pending arm to an earlier cycle, as a request
        // arrival would, then run up to it.
        const Cycle earlier =
            kick.when() > eq.now() + 2 ? kick.when() - 2 : kick.when();
        eq.schedule(kick, earlier);
        eq.run(earlier);
        benchmark::DoNotOptimize(kicks);
    }
}
BENCHMARK(BM_TickEventKickRearm);

static void
BM_EventQueueFarHeap(benchmark::State &state)
{
    // Epoch-scale scheduling: events far beyond the timing wheel
    // exercise the far heap and its migration into the window.
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t sum = 0;
        for (int i = 0; i < 64; ++i) {
            eq.schedule(static_cast<Cycle>(100'000 + i * 50'000),
                        [&sum, i] { sum += static_cast<unsigned>(i); });
        }
        eq.run();
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_EventQueueFarHeap);

// ------------------------------------------------------------------
// Per-core mapping memo (core/banshee.hh)
// ------------------------------------------------------------------

namespace {

/** Minimal scheme surroundings (mirrors tests/scheme_harness.hh). */
struct MemoBench
{
    EventQueue eq;
    DramModel inPkg{eq, DramTiming{}, 1, "bmIn"};
    DramModel offPkg{eq, DramTiming{}, 1, "bmOff"};
    PageTableManager pageTable;
    OsServices os{eq, pageTable};
    SchemeContext ctx;
    std::unique_ptr<BansheeScheme> scheme;

    MemoBench()
    {
        ctx.eq = &eq;
        ctx.inPkg = &inPkg;
        ctx.offPkg = &offPkg;
        ctx.mcId = 0;
        ctx.numMcs = 1;
        ctx.cacheBytesPerMc = 8ull << 20;
        ctx.pageTable = &pageTable;
        ctx.os = &os;
        ctx.seed = 1;
        scheme = std::make_unique<BansheeScheme>(ctx, BansheeConfig{});
    }
};

} // namespace

static void
BM_MappingMemoHit(benchmark::State &state)
{
    // The fetch fast path: same page, same core — one compare.
    MemoBench b;
    for (auto _ : state)
        benchmark::DoNotOptimize(b.scheme->setOfMemo(0x123, 0));
}
BENCHMARK(BM_MappingMemoHit);

static void
BM_MappingMemoMissRecompute(benchmark::State &state)
{
    // Alternating pages defeat the depth-1 MRU: every lookup pays the
    // full hash + modulus (the pre-memo cost, for comparison).
    MemoBench b;
    PageNum p = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(b.scheme->setOfMemo(0x1000 + (p & 1), 0));
        ++p;
    }
}
BENCHMARK(BM_MappingMemoMissRecompute);

BENCHMARK_MAIN();
