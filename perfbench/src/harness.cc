#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "replay.hh"
#include "telemetry/telemetry.hh"
#include "workload/workloads.hh"

namespace perfbench {

using namespace banshee;

double
metricValue(const Metrics &m, const std::string &name)
{
    for (const Metric &x : m) {
        if (x.name == name)
            return x.value;
    }
    std::fprintf(stderr, "perfbench: no metric named '%s'\n", name.c_str());
    std::abort();
}

namespace {

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
perKinstr(std::uint64_t count, std::uint64_t instr)
{
    return ratio(1000.0 * static_cast<double>(count),
                 static_cast<double>(instr));
}

/** ext_scale's consolidation pool: 16 tenants x 4 cores cycling the
 *  paper's partitionable (non-graph) workloads, weights 1..4. */
std::vector<TenantConfig>
consolidationTenants()
{
    std::vector<std::string> pool;
    for (const std::string &n : WorkloadFactory::paperNames()) {
        if (!WorkloadFactory::isGraph(n))
            pool.push_back(n);
    }
    std::vector<TenantConfig> tenants;
    for (std::uint32_t t = 0; t < 16; ++t) {
        TenantConfig tc;
        tc.name = "t" + std::to_string(t);
        tc.workload = pool[t % pool.size()];
        tc.weight = 1.0 + static_cast<double>(t % 4);
        tc.numCores = 4;
        tenants.push_back(tc);
    }
    return tenants;
}

/** Single-tenant 16-core run at the benches' --quick budget. */
SystemConfig
quickSingle(const char *workload, SchemeKind scheme)
{
    SystemConfig c = SystemConfig::scaledDefault();
    c.withScheme(scheme);
    c.workload = workload;
    c.warmupInstrPerCore /= 4;
    c.measureInstrPerCore /= 4;
    return c;
}

SystemConfig
graphBanshee()
{
    return quickSingle("pagerank", SchemeKind::Banshee);
}

SystemConfig
streamUnison()
{
    return quickSingle("lbm", SchemeKind::Unison);
}

/** ext_scale's quota point at half its full per-core budget. */
SystemConfig
consolidationQos()
{
    SystemConfig c = SystemConfig::scaledDefault();
    c.numCores = 64;
    c.warmupInstrPerCore = 75'000;
    c.measureInstrPerCore = 150'000;
    c.autoWarmup = false;
    c.footprintScale = 1.0 / 4.0;
    c.withScheme(SchemeKind::Banshee);
    c.mem.inPkgCapacity = 64ull << 20;
    c.resize.hash.numSlices = 32;
    c.withTenants(consolidationTenants(), /*partition=*/true);
    c.withQosArbiter();
    // Stale layout: slices start split evenly while the tenants'
    // weights say 1..4, so the arbiter has reassigns to make.
    c.resize.tenantWeights.assign(c.tenants.size(), 1.0);
    c.withDramQos();
    return c;
}

std::uint64_t
totalInstructions(System &sys)
{
    std::uint64_t n = 0;
    for (CoreId c = 0; c < sys.config().numCores; ++c)
        n += sys.core(c).instrRetired();
    return n;
}

std::uint64_t
coreStatSum(System &sys, const char *name)
{
    std::uint64_t n = 0;
    for (CoreId c = 0; c < sys.config().numCores; ++c)
        n += sys.core(c).stats().value(name);
    return n;
}

std::uint64_t
schemeStatSum(System &sys, const char *name)
{
    std::uint64_t n = 0;
    for (std::uint32_t mc = 0; mc < sys.memSystem().numMcs(); ++mc)
        n += sys.memSystem().scheme(mc).stats().value(name);
    return n;
}

/** Row-buffer hit rate over every channel of @p dev. */
double
rowHitRate(const DramModel *dev)
{
    if (!dev)
        return 0.0;
    std::uint64_t reqs = 0, hits = 0;
    auto endsWith = [](const std::string &s, const std::string &suffix) {
        return s.size() >= suffix.size() &&
               s.compare(s.size() - suffix.size(), suffix.size(),
                         suffix) == 0;
    };
    for (const auto &kv : dev->stats().all()) {
        if (endsWith(kv.first, ".requests"))
            reqs += kv.second->value();
        else if (endsWith(kv.first, ".rowHits"))
            hits += kv.second->value();
    }
    return ratio(static_cast<double>(hits), static_cast<double>(reqs));
}

/** Queue-latency distribution of every channel named "<prefix>.chN". */
Histogram
mergedQueueLatency(Telemetry &t, const std::string &prefix)
{
    Histogram merged;
    const MetricRegistry &reg = t.registry();
    const std::string head = prefix + ".ch";
    const std::string tail = ".queueLat";
    for (std::size_t i = 0; i < reg.numHistograms(); ++i) {
        const std::string &n = reg.histNameAt(i);
        if (n.rfind(head, 0) == 0 && n.size() > head.size() + tail.size() &&
            n.compare(n.size() - tail.size(), tail.size(), tail) == 0)
            merged.merge(reg.histogramAt(i));
    }
    return merged;
}

const PhaseTimer &
timerOf(Telemetry &t, const char *name)
{
    static const PhaseTimer kNone;
    const auto &timers = t.registry().timers();
    auto it = timers.find(name);
    return it == timers.end() ? kNone : it->second;
}

Metrics
rawFingerprint(System &sys, const RunResult &r)
{
    Metrics m = {
        {"raw.instructions", "count", static_cast<double>(r.instructions)},
        {"raw.cycles", "cycles", static_cast<double>(r.cycles)},
        {"raw.events", "count",
         static_cast<double>(sys.eventQueue().eventsExecuted())},
        {"raw.dram_accesses", "count",
         static_cast<double>(r.dramCacheAccesses)},
        {"raw.dram_misses", "count", static_cast<double>(r.dramCacheMisses)},
        {"energy.total_pj", "pJ", r.totalEnergyPJ()},
    };
    for (std::size_t i = 0; i < r.tenants.size(); ++i) {
        const TenantRunStats &t = r.tenants[i];
        const std::string p = "raw.tenant" + std::to_string(i);
        m.push_back({p + ".instructions", "count",
                     static_cast<double>(t.instructions)});
        m.push_back({p + ".cycles", "cycles", static_cast<double>(t.cycles)});
        m.push_back({p + ".inpkg_bytes", "B",
                     static_cast<double>(t.inPkgBytes)});
        m.push_back({p + ".offpkg_bytes", "B",
                     static_cast<double>(t.offPkgBytes)});
        m.push_back({p + ".slices", "count",
                     static_cast<double>(t.slicesOwned)});
    }
    return m;
}

/** The benchmark's workloads, in the order the notes describe them. */
const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<std::string> common = {
        "eq.events_per_kinstr",        "cpu.mem_ops_per_kinstr",
        "tlb.miss_rate",               "sram.accesses_per_kinstr",
        "sram.llc_mpki",               "scheme.miss_rate",
        "scheme.avg_fetch_latency_cycles",
        "scheme.replacements_per_kinstr",
        "dram.inpkg_bus_util",         "dram.offpkg_bus_util",
        "dram.inpkg_row_hit_rate",     "dram.offpkg_row_hit_rate",
        "power.dram_pj_per_instr",     "power.inpkg_avg_w",
        "power.offpkg_avg_w",
    };
    static const std::vector<std::string> banshee = {
        "scheme.tag_buffer_hit_rate",
        "scheme.writeback_tag_probes_per_kinstr",
        "os.pte_update_runs",
        "os.pte_writes_per_kinstr",
        "os.tlb_shootdowns",
    };
    static const std::vector<std::string> tenant = {
        "resize.pages_migrated",      "resize.slices_reassigned",
        "tenant.ipc_min",             "tenant.ipc_max",
        "tenant.attributed_inpkg_frac", "tenant.attributed_offpkg_frac",
        "tenant.qos_defers",
    };
    auto join = [](std::initializer_list<std::vector<std::string>> parts) {
        std::vector<std::string> all;
        for (const auto &p : parts)
            all.insert(all.end(), p.begin(), p.end());
        return all;
    };
    static const std::vector<WorkloadSpec> table = {
        {"graph-banshee", graphBanshee, join({common, banshee})},
        {"stream-unison", streamUnison, common},
        {"consolidation-qos", consolidationQos,
         join({common, banshee, tenant})},
    };
    return table;
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : workloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

SystemConfig
workloadConfig(const WorkloadSpec &spec, std::uint64_t seed)
{
    SystemConfig c = spec.config();
    c.seed = seed;
    return c;
}

Metrics
modelMetrics(const RunResult &r)
{
    std::uint64_t overhead = 0;
    for (std::size_t c = 0; c < kNumTrafficCats; ++c) {
        if (static_cast<TrafficCat>(c) != TrafficCat::HitData)
            overhead += r.inPkgBytes[c];
    }
    return {
        {"ipc", "instr/cycle", r.ipc},
        {"offpkg_bytes_per_instr", "B/instr", r.offPkgTotalBpi()},
        {"inpkg_overhead_bytes_per_instr", "B/instr",
         ratio(static_cast<double>(overhead),
               static_cast<double>(r.instructions))},
    };
}

Metrics
simulatedLayerMetrics(System &sys, const RunResult &r)
{
    const std::uint64_t instr = r.instructions;
    const std::uint64_t totalInstr = totalInstructions(sys);
    const double coreCycles =
        static_cast<double>(sys.config().numCores) *
        static_cast<double>(r.cycles);

    std::uint64_t tlbHits = 0, tlbMisses = 0;
    for (CoreId c = 0; c < sys.config().numCores; ++c) {
        tlbHits += sys.tlb(c).hits();
        tlbMisses += sys.tlb(c).misses();
    }
    const StatSet &hier = sys.hierarchy().stats();
    const std::uint64_t llcMisses = hier.value("llcMisses");
    const std::uint64_t merges = hier.value("mshrMerges");

    double ipcMin = 0.0, ipcMax = 0.0;
    std::uint64_t tenantIn = 0, tenantOff = 0, defers = 0;
    for (std::size_t i = 0; i < r.tenants.size(); ++i) {
        const TenantRunStats &t = r.tenants[i];
        ipcMin = i == 0 ? t.ipc : std::min(ipcMin, t.ipc);
        ipcMax = i == 0 ? t.ipc : std::max(ipcMax, t.ipc);
        tenantIn += t.inPkgBytes;
        tenantOff += t.offPkgBytes;
        defers += t.qosDefers;
    }
    const DeviceTotals totals = deviceTotals(sys);

    Metrics m = {
        {"eq.events_per_kinstr", "1/kinstr",
         perKinstr(sys.eventQueue().eventsExecuted(), totalInstr)},
        {"cpu.mem_ops_per_kinstr", "1/kinstr",
         perKinstr(coreStatSum(sys, "memOps"), instr)},
        {"cpu.rob_stall_frac", "frac",
         ratio(static_cast<double>(coreStatSum(sys, "robStallCycles")),
               coreCycles)},
        {"cpu.mshr_stall_frac", "frac",
         ratio(static_cast<double>(coreStatSum(sys, "mshrStallCycles")),
               coreCycles)},
        {"cpu.dep_stall_frac", "frac",
         ratio(static_cast<double>(coreStatSum(sys, "depStallCycles")),
               coreCycles)},
        {"tlb.miss_rate", "frac",
         ratio(static_cast<double>(tlbMisses),
               static_cast<double>(tlbHits + tlbMisses))},
        {"sram.accesses_per_kinstr", "1/kinstr",
         perKinstr(hier.value("accesses"), instr)},
        {"sram.llc_mpki", "1/kinstr", r.llcMpki},
        {"sram.mshr_merge_frac", "frac",
         ratio(static_cast<double>(merges),
               static_cast<double>(llcMisses + merges))},
        {"sram.llc_writebacks_per_kinstr", "1/kinstr",
         perKinstr(hier.value("llcWritebacks"), instr)},
        {"scheme.miss_rate", "frac", r.missRate},
        {"scheme.avg_fetch_latency_cycles", "cycles", r.avgFetchLatency},
        {"scheme.tag_buffer_hit_rate", "frac",
         ratio(static_cast<double>(r.tagBufferHits),
               static_cast<double>(r.tagBufferHits + r.tagBufferMisses))},
        // Banshee counts a replacement as a page insert; Unison and
        // TDC count "replacements". Each scheme has only one of them.
        {"scheme.replacements_per_kinstr", "1/kinstr",
         perKinstr(schemeStatSum(sys, "pagesInserted") +
                       schemeStatSum(sys, "replacements"),
                   instr)},
        {"scheme.replacements_blocked", "count",
         static_cast<double>(r.replacementsBlocked)},
        {"scheme.writeback_tag_probes_per_kinstr", "1/kinstr",
         perKinstr(schemeStatSum(sys, "writebackTagProbes"), instr)},
        {"os.pte_update_runs", "count",
         static_cast<double>(r.pteUpdateRuns)},
        {"os.pte_writes_per_kinstr", "1/kinstr",
         perKinstr(sys.os().stats().value("pteWrites"), instr)},
        {"os.tlb_shootdowns", "count", static_cast<double>(r.tlbShootdowns)},
        {"dram.inpkg_bus_util", "frac", r.inPkgBusUtil},
        {"dram.offpkg_bus_util", "frac", r.offPkgBusUtil},
        {"dram.inpkg_row_hit_rate", "frac",
         rowHitRate(sys.memSystem().inPkg())},
        {"dram.offpkg_row_hit_rate", "frac",
         rowHitRate(sys.memSystem().offPkg())},
    };
    for (std::size_t c = 0; c < kNumTrafficCats; ++c) {
        const TrafficCat cat = static_cast<TrafficCat>(c);
        m.push_back({std::string("dram.inpkg.") + trafficCatName(cat) +
                         "_bpi",
                     "B/instr", r.inPkgBpi(cat)});
    }
    for (std::size_t c = 0; c < kNumTrafficCats; ++c) {
        const TrafficCat cat = static_cast<TrafficCat>(c);
        m.push_back({std::string("dram.offpkg.") + trafficCatName(cat) +
                         "_bpi",
                     "B/instr", r.offPkgBpi(cat)});
    }
    const Metrics tail = {
        {"power.dram_pj_per_instr", "pJ/instr", r.energyPerInstrPJ()},
        {"power.inpkg_avg_w", "W", r.inPkgAvgPowerWatts},
        {"power.offpkg_avg_w", "W", r.offPkgAvgPowerWatts},
        {"resize.pages_migrated", "count",
         static_cast<double>(r.pagesMigrated)},
        {"resize.slices_reassigned", "count",
         static_cast<double>(r.qosReassigns)},
        {"resize.migration_tag_stalls", "count",
         static_cast<double>(r.migrationTagStalls)},
        {"tenant.ipc_min", "instr/cycle", ipcMin},
        {"tenant.ipc_max", "instr/cycle", ipcMax},
        {"tenant.attributed_inpkg_frac", "frac",
         ratio(static_cast<double>(tenantIn),
               static_cast<double>(totals.inPkgBytes))},
        {"tenant.attributed_offpkg_frac", "frac",
         r.tenants.empty()
             ? 0.0
             : ratio(static_cast<double>(tenantOff),
                     static_cast<double>(totals.offPkgBytes))},
        {"tenant.qos_defers", "count", static_cast<double>(defers)},
    };
    m.insert(m.end(), tail.begin(), tail.end());
    return m;
}

Metrics
hostLayerMetrics(System &sys, const RunResult &r, const ReplayCosts &costs)
{
    Telemetry *t = sys.telemetry();
    if (!t) {
        std::fprintf(stderr, "perfbench: host layer metrics need a "
                             "telemetry-enabled System\n");
        std::abort();
    }
    const PhaseTimer &loop = timerOf(*t, "host.eventQueue");
    const PhaseTimer &kick = timerOf(*t, "host.dramKick");
    const PhaseTimer &fetch = timerOf(*t, "host.fetchLine");
    const double loopNs = static_cast<double>(loop.ns);
    const double events =
        static_cast<double>(sys.eventQueue().eventsExecuted());
    const std::uint64_t totalInstr = totalInstructions(sys);

    // Core, TLB and SRAM counters are reset at the warmup boundary
    // while the loop timer spans both phases: scale the measured
    // counts by total/measured instructions to estimate whole-run
    // call counts.
    const double scale = ratio(static_cast<double>(totalInstr),
                               static_cast<double>(r.instructions));
    const double memOps =
        static_cast<double>(coreStatSum(sys, "memOps")) * scale;
    const double sramAccesses =
        static_cast<double>(sys.hierarchy().stats().value("accesses")) *
        scale;

    const double eqShare = ratio(costs.nsPerEvent * events, loopNs);
    const double workloadShare = ratio(costs.nsPerNext * memOps, loopNs);
    const double tlbShare = ratio(costs.nsPerTlbLookup * memOps, loopNs);
    const double sramShare =
        ratio(costs.nsPerSramAccess * sramAccesses, loopNs);
    const double schemeShare = ratio(static_cast<double>(fetch.ns), loopNs);
    const double dramShare = ratio(static_cast<double>(kick.ns), loopNs);

    const HistogramSummary inQ =
        mergedQueueLatency(*t, "inpkg").summary("inpkg.queueLat");
    const HistogramSummary offQ =
        mergedQueueLatency(*t, "offpkg").summary("offpkg.queueLat");

    return {
        {"eq.host_ns_per_event", "ns", ratio(loopNs, events)},
        {"eq.replay_ns_per_event", "ns", costs.nsPerEvent},
        {"eq.host_share_est", "frac", eqShare},
        {"workload.replay_ns_per_access", "ns", costs.nsPerNext},
        {"workload.host_share_est", "frac", workloadShare},
        {"tlb.replay_ns_per_lookup", "ns", costs.nsPerTlbLookup},
        {"tlb.host_share_est", "frac", tlbShare},
        {"sram.replay_ns_per_access", "ns", costs.nsPerSramAccess},
        {"sram.host_share_est", "frac", sramShare},
        {"scheme.host_ns_per_fetch", "ns",
         ratio(static_cast<double>(fetch.ns),
               static_cast<double>(fetch.calls))},
        {"scheme.host_share", "frac", schemeShare},
        {"dram.kicks_per_kinstr", "1/kinstr",
         perKinstr(kick.calls, totalInstr)},
        {"dram.host_ns_per_kick", "ns",
         ratio(static_cast<double>(kick.ns),
               static_cast<double>(kick.calls))},
        {"dram.host_share", "frac", dramShare},
        {"dram.inpkg_qlat_p50_cycles", "cycles",
         static_cast<double>(inQ.p50)},
        {"dram.inpkg_qlat_p99_cycles", "cycles",
         static_cast<double>(inQ.p99)},
        {"dram.inpkg_qlat_saturated", "flag", inQ.saturated ? 1.0 : 0.0},
        {"dram.offpkg_qlat_p50_cycles", "cycles",
         static_cast<double>(offQ.p50)},
        {"dram.offpkg_qlat_p99_cycles", "cycles",
         static_cast<double>(offQ.p99)},
        {"dram.offpkg_qlat_saturated", "flag", offQ.saturated ? 1.0 : 0.0},
        {"trace.loop_s", "s", loopNs / 1e9},
        {"trace.unattributed_frac", "frac",
         1.0 - (eqShare + workloadShare + tlbShare + sramShare +
                schemeShare + dramShare)},
    };
}

DeviceTotals
deviceTotals(System &sys)
{
    DeviceTotals d;
    auto add = [](const DramModel *dev, std::uint64_t &total,
                  std::uint64_t &buckets) {
        if (!dev)
            return;
        total = dev->traffic().totalBytes();
        for (std::size_t b = 0; b < kTenantBuckets; ++b) {
            const TenantId t =
                b < kMaxTenants ? static_cast<TenantId>(b) : kNoTenant;
            buckets += dev->traffic().tenantBytes(t);
        }
    };
    add(sys.memSystem().inPkg(), d.inPkgBytes, d.inPkgBucketBytes);
    add(sys.memSystem().offPkg(), d.offPkgBytes, d.offPkgBucketBytes);
    return d;
}

std::vector<std::string>
checkConservation(const RunResult &r, const DeviceTotals &totals)
{
    std::vector<std::string> failures;
    auto expectEqual = [&failures](const char *what, std::uint64_t got,
                                   std::uint64_t want) {
        if (got != want) {
            failures.push_back(std::string(what) + ": " +
                               std::to_string(got) + " != " +
                               std::to_string(want));
        }
    };
    std::uint64_t in = 0, off = 0;
    for (std::size_t c = 0; c < kNumTrafficCats; ++c) {
        in += r.inPkgBytes[c];
        off += r.offPkgBytes[c];
    }
    expectEqual("in-package category bytes vs device total", in,
                totals.inPkgBytes);
    expectEqual("off-package category bytes vs device total", off,
                totals.offPkgBytes);
    expectEqual("in-package tenant buckets vs device total",
                totals.inPkgBucketBytes, totals.inPkgBytes);
    expectEqual("off-package tenant buckets vs device total",
                totals.offPkgBucketBytes, totals.offPkgBytes);
    if (!r.tenants.empty()) {
        std::uint64_t tenantIn = 0, tenantOff = 0;
        for (const TenantRunStats &t : r.tenants) {
            tenantIn += t.inPkgBytes;
            tenantOff += t.offPkgBytes;
        }
        expectEqual("in-package bytes of named tenants vs device total",
                    tenantIn, totals.inPkgBytes);
        expectEqual("off-package bytes of named tenants vs device total",
                    tenantOff, totals.offPkgBytes);
    }
    return failures;
}

std::vector<std::string>
checkRun(System &sys, const RunResult &r, const WorkloadSpec &spec,
         const Metrics &layer)
{
    std::vector<std::string> failures;
    const SystemConfig &cfg = sys.config();
    const std::uint64_t budget =
        cfg.warmupInstrPerCore + cfg.measureInstrPerCore;
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        if (sys.core(c).instrRetired() < budget) {
            failures.push_back("core " + std::to_string(c) + " retired " +
                               std::to_string(sys.core(c).instrRetired()) +
                               " of " + std::to_string(budget) +
                               " instructions");
        }
    }
    for (const std::string &f : checkConservation(r, deviceTotals(sys)))
        failures.push_back(f);
    for (const std::string &name : spec.expectNonzero) {
        if (!(metricValue(layer, name) > 0.0))
            failures.push_back(name + " reads zero");
    }
    return failures;
}

/** Odd, so the median is one of the samples. */
constexpr std::size_t kSetupSamples = 5;

Experiment
runExperiment(SystemConfig cfg, const WorkloadSpec &spec, bool traced,
              std::size_t replayOps, std::size_t replayEvents)
{
    using Clock = std::chrono::steady_clock;
    auto secondsSince = [](Clock::time_point start) {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };
    if (traced)
        cfg.withTelemetry(""); // in memory only: no JSONL file

    // Construction takes milliseconds, so one sample is mostly noise:
    // time several and run the last System built.
    std::vector<double> setups;
    std::unique_ptr<System> built;
    for (std::size_t i = 0; i < kSetupSamples; ++i) {
        built.reset();
        const Clock::time_point setupStart = Clock::now();
        built = std::make_unique<System>(cfg);
        setups.push_back(secondsSince(setupStart));
    }
    std::nth_element(setups.begin(), setups.begin() + setups.size() / 2,
                     setups.end());
    const double setupS = setups[setups.size() / 2];
    System &sys = *built;

    const Clock::time_point runStart = Clock::now();
    const RunResult r = sys.run();
    const double runS = secondsSince(runStart);

    Experiment e;
    e.sim = modelMetrics(r);
    const Metrics layers = simulatedLayerMetrics(sys, r);
    e.sim.insert(e.sim.end(), layers.begin(), layers.end());
    e.raw = rawFingerprint(sys, r);
    e.failures = checkRun(sys, r, spec, layers);
    if (traced) {
        e.hostLayers = hostLayerMetrics(
            sys, r, replayLayers(sys, replayOps, replayEvents));
    }

    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    e.host = {
        {"sim_mips", "MIPS",
         static_cast<double>(totalInstructions(sys)) / runS / 1e6},
        {"setup_s", "s", setupS},
        {"peak_rss_mb", "MB", static_cast<double>(usage.ru_maxrss) / 1024.0},
        {"run_s", "s", runS},
    };

    for (const Metrics *m : {&e.host, &e.sim, &e.raw, &e.hostLayers}) {
        for (const Metric &x : *m) {
            if (!std::isfinite(x.value))
                e.failures.push_back(x.name + " is not finite");
        }
    }
    return e;
}

} // namespace perfbench
