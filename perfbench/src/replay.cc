#include "replay.hh"

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "workload/workloads.hh"

namespace perfbench {

using namespace banshee;

namespace {

using Clock = std::chrono::steady_clock;

double
nsSince(Clock::time_point start)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
}

/** Completes every LLC miss as soon as the hierarchy hands it over,
 *  so the replay times the SRAM levels alone. */
class StubBackend : public MemBackend
{
  public:
    void
    fetchLine(LineAddr, const MappingInfo &, CoreId, MissDoneFn done) override
    {
        pending_.push_back(std::move(done));
    }

    void writebackLine(LineAddr) override {}

    void
    completeAll()
    {
        for (std::size_t i = 0; i < pending_.size(); ++i)
            pending_[i](0);
        pending_.clear();
    }

  private:
    std::vector<MissDoneFn> pending_;
};

struct CoreOp
{
    CoreId core;
    MemOp op;
};

/** The cores' streams interleaved in quanta, as the event loop runs
 *  them; returns the ops and sets @p nsPerNext. */
std::vector<CoreOp>
generateStream(System &sys, std::size_t ops, double &nsPerNext)
{
    const SystemConfig &cfg = sys.config();
    const std::uint32_t cores = cfg.numCores;
    const std::size_t perCore = ops / cores + 1;
    TenantMap *tenants = sys.tenantMap();

    std::vector<std::vector<MemOp>> streams(cores);
    double ns = 0.0;
    for (CoreId c = 0; c < cores; ++c) {
        std::string workload = cfg.workload;
        std::uint32_t workloadCores = cores;
        if (tenants) {
            const TenantId t = tenants->tenantOfCore(c);
            workload = tenants->config(t).workload;
            workloadCores = tenants->coreCount(t);
        }
        std::unique_ptr<AccessPattern> pattern = WorkloadFactory::create(
            workload, c, workloadCores, cfg.footprintScale);
        Rng rng(cfg.seed * 1000003ull + c); // the System's per-core seed
        std::vector<MemOp> &s = streams[c];
        s.resize(perCore);
        const Clock::time_point start = Clock::now();
        for (std::size_t i = 0; i < perCore; ++i)
            s[i] = pattern->next(rng);
        ns += nsSince(start);
    }
    nsPerNext = ns / static_cast<double>(perCore * cores);

    const std::size_t quantum = 64;
    std::vector<CoreOp> out;
    out.reserve(perCore * cores);
    for (std::size_t base = 0; base < perCore; base += quantum) {
        for (CoreId c = 0; c < cores; ++c) {
            for (std::size_t i = base; i < base + quantum && i < perCore;
                 ++i)
                out.push_back({c, streams[c][i]});
        }
    }
    return out;
}

double
replayTlb(System &sys, const std::vector<CoreOp> &stream)
{
    const SystemConfig &cfg = sys.config();
    PageTableManager pageTable;
    std::vector<std::unique_ptr<Tlb>> tlbs;
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        tlbs.push_back(std::make_unique<Tlb>(cfg.tlb, pageTable,
                                             "replay" + std::to_string(c)));
    }
    const std::size_t half = stream.size() / 2;
    for (std::size_t i = 0; i < half; ++i)
        tlbs[stream[i].core]->lookup(pageOf(stream[i].op.addr));
    const Clock::time_point start = Clock::now();
    for (std::size_t i = half; i < stream.size(); ++i)
        tlbs[stream[i].core]->lookup(pageOf(stream[i].op.addr));
    return nsSince(start) / static_cast<double>(stream.size() - half);
}

double
replaySram(System &sys, const std::vector<CoreOp> &stream)
{
    const SystemConfig &cfg = sys.config();
    HierarchyParams hp = cfg.hierarchy;
    hp.numCores = cfg.numCores;
    StubBackend backend;
    CacheHierarchy hier(hp, backend);

    // Instruction fetches follow the core model: one L1I probe per
    // fetch group, walking the core's code region.
    std::vector<std::uint32_t> sinceFetch(cfg.numCores, 0);
    std::vector<std::uint64_t> codePos(cfg.numCores, 0);
    std::uint64_t calls = 0;
    auto access = [&](const CoreOp &x) {
        sinceFetch[x.core] += x.op.nonMemBefore + 1u;
        if (sinceFetch[x.core] >= cfg.core.fetchGroup) {
            sinceFetch[x.core] = 0;
            const Addr faddr =
                CoreModel::codeRegionBase(x.core, cfg.core) + codePos[x.core];
            codePos[x.core] = (codePos[x.core] + kLineBytes) % cfg.core.codeBytes;
            hier.fetch(x.core, faddr, MappingInfo{}, [](Cycle) {});
            ++calls;
        }
        hier.access(x.core, x.op.addr, x.op.isWrite, MappingInfo{},
                    [](Cycle) {});
        ++calls;
        backend.completeAll();
    };

    const std::size_t half = stream.size() / 2;
    for (std::size_t i = 0; i < half; ++i)
        access(stream[i]);
    calls = 0;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = half; i < stream.size(); ++i)
        access(stream[i]);
    return nsSince(start) / static_cast<double>(calls);
}

/** One self-rearming event per core (the core tick) plus one-shot
 *  completions further out, the two kinds the run loop dispatches. */
double
replayEvents(std::uint32_t cores, std::uint64_t seed, std::size_t events)
{
    EventQueue eq;
    Rng rng(seed);
    std::uint64_t fired = 0;
    std::vector<std::unique_ptr<TickEvent>> ticks;
    auto onFire = [&](TickEvent &self) {
        if (++fired >= events) {
            eq.requestStop();
            return;
        }
        eq.scheduleAfter(self, 1 + rng.nextBelow(32));
        if (rng.nextBelow(4) == 0) {
            eq.scheduleAfter(100 + rng.nextBelow(300), [&] {
                if (++fired >= events)
                    eq.requestStop();
            });
        }
    };
    for (std::uint32_t c = 0; c < cores; ++c) {
        ticks.push_back(std::make_unique<TickEvent>());
        TickEvent *ev = ticks.back().get();
        ev->setCallback([&onFire, ev] { onFire(*ev); });
        eq.schedule(*ev, c);
    }
    const Clock::time_point start = Clock::now();
    eq.run();
    const double ns = nsSince(start);
    return ns / static_cast<double>(eq.eventsExecuted());
}

} // namespace

ReplayCosts
replayLayers(System &sys, std::size_t ops, std::size_t events)
{
    ReplayCosts costs;
    const std::vector<CoreOp> stream =
        generateStream(sys, ops, costs.nsPerNext);
    costs.nsPerTlbLookup = replayTlb(sys, stream);
    costs.nsPerSramAccess = replaySram(sys, stream);
    costs.nsPerEvent =
        replayEvents(sys.config().numCores, sys.config().seed, events);
    return costs;
}

} // namespace perfbench
