#include "cache/hierarchy.hh"

#include "common/log.hh"

namespace banshee {

CacheHierarchy::CacheHierarchy(const HierarchyParams &params,
                               MemBackend &backend)
    : params_(params), backend_(backend), stats_("hierarchy"),
      statAccesses_(stats_.counter("accesses")),
      statLlcMisses_(stats_.counter("llcMisses")),
      statMshrMerges_(stats_.counter("mshrMerges")),
      statLlcWritebacks_(stats_.counter("llcWritebacks"))
{
    sim_assert(params.numCores <= 64,
               "sharer mask is 64 bits; %u cores requested",
               params.numCores);
    for (std::uint32_t c = 0; c < params.numCores; ++c) {
        CacheParams p;
        p.name = "l1i" + std::to_string(c);
        p.sizeBytes = params.l1iSize;
        p.ways = params.l1iWays;
        l1i_.push_back(std::make_unique<Cache>(p));
        p.name = "l1d" + std::to_string(c);
        p.sizeBytes = params.l1dSize;
        p.ways = params.l1dWays;
        l1d_.push_back(std::make_unique<Cache>(p));
        p.name = "l2_" + std::to_string(c);
        p.sizeBytes = params.l2Size;
        p.ways = params.l2Ways;
        l2_.push_back(std::make_unique<Cache>(p));
    }
    CacheParams p3;
    p3.name = "l3";
    p3.sizeBytes = params.l3Size;
    p3.ways = params.l3Ways;
    l3_ = std::make_unique<Cache>(p3);
}

CacheHierarchy::AccessResult
CacheHierarchy::access(CoreId core, Addr addr, bool isWrite,
                       const MappingInfo &mapping, MissDoneFn done)
{
    return accessInternal(core, addr, isWrite, false, mapping,
                          std::move(done));
}

CacheHierarchy::AccessResult
CacheHierarchy::fetch(CoreId core, Addr addr, const MappingInfo &mapping,
                      MissDoneFn done)
{
    return accessInternal(core, addr, false, true, mapping, std::move(done));
}

CacheHierarchy::AccessResult
CacheHierarchy::accessInternal(CoreId core, Addr addr, bool isWrite,
                               bool isFetch, const MappingInfo &mapping,
                               MissDoneFn done)
{
    ++statAccesses_;
    const LineAddr line = lineOf(addr);
    Cache &l1 = isFetch ? *l1i_[core] : *l1d_[core];

    AccessResult res;
    if (l1.lookup(line, isWrite)) {
        res.level = Level::L1;
        res.latency = params_.l1Latency;
        return res;
    }

    // The L1 just missed, so an L2 hit fills it without a probe, and
    // an L3 hit fills both private levels without probes.
    const std::uint64_t inL1 = isFetch ? kInL1i : kInL1d;
    if (l2_[core]->lookup(line, false, inL1)) {
        handleL1Victim(core, l1.insert(line, isWrite));
        res.level = Level::L2;
        res.latency = params_.l2Latency;
        return res;
    }

    if (l3_->lookup(line, false, 1ull << core)) {
        fillPrivate(core, line, isWrite, isFetch);
        res.level = Level::L3;
        res.latency = params_.l3Latency;
        return res;
    }

    // LLC miss: merge into an existing MSHR or allocate one.
    res.level = Level::Mem;
    res.latency = params_.l1Latency + params_.l2Latency + params_.l3Latency;
    res.pending = true;

    auto it = mshrs_.find(line);
    if (it != mshrs_.end()) {
        ++statMshrMerges_;
        it->second.waiters.push_back(
            MshrWaiter{core, isWrite, isFetch, std::move(done)});
        return res;
    }

    ++statLlcMisses_;
    MshrEntry entry;
    entry.mapping = mapping;
    entry.waiters.push_back(
        MshrWaiter{core, isWrite, isFetch, std::move(done)});
    mshrs_.emplace(line, std::move(entry));

    backend_.fetchLine(line, mapping, core,
                       [this, line](Cycle when) { fillComplete(line, when); });
    return res;
}

void
CacheHierarchy::fillPrivate(CoreId core, LineAddr line, bool isWrite,
                            bool isFetch)
{
    Cache &l1 = isFetch ? *l1i_[core] : *l1d_[core];
    handleL2Victim(core,
                   l2_[core]->insert(line, false, isFetch ? kInL1i : kInL1d));
    handleL1Victim(core, l1.insert(line, isWrite));
}

void
CacheHierarchy::handleL1Victim(CoreId core, const Cache::Victim &victim)
{
    if (!victim.valid || !victim.dirty)
        return;
    // L2 is inclusive of L1: fillPrivate fills L2 before L1, and both
    // L2 and L3 victims back-invalidate the L1 copies. So the line is
    // still in L2 (release asserts it); merge the dirty data there.
    // Only the L1d holds dirty lines (fetches never write), so the
    // same probe clears the L1d presence bit.
    l2_[core]->release(victim.line, kInL1d, true);
}

void
CacheHierarchy::handleL2Victim(CoreId core, const Cache::Victim &victim)
{
    if (!victim.valid)
        return;
    // Back-invalidate the L1 copies (inclusive L2), probing only the
    // L1s whose presence bit is set.
    bool dirty = victim.dirty;
    if (victim.meta & kInL1d)
        dirty |= l1d_[core]->invalidate(victim.line).dirty;
    if (victim.meta & kInL1i)
        l1i_[core]->invalidate(victim.line);
    // L3 is inclusive of every L2: L3 victims back-invalidate all
    // their sharers. So the line is in L3 (release asserts it); one
    // probe clears this core's sharer bit and merges the dirty data.
    l3_->release(victim.line, 1ull << core, dirty);
}

void
CacheHierarchy::handleL3Victim(const Cache::Victim &victim)
{
    if (!victim.valid)
        return;
    bool dirty = victim.dirty;
    // Sharer bits are set on every L2 fill and cleared when that L2
    // drops the line, so each sharer's L2 holds it. The L2 copy's
    // presence bits then name the L1s to probe.
    for (std::uint64_t sharers = victim.meta; sharers;
         sharers &= sharers - 1) {
        const CoreId c = static_cast<CoreId>(__builtin_ctzll(sharers));
        const Cache::Victim l2Copy = l2_[c]->invalidate(victim.line);
        sim_assert(l2Copy.valid, "L3 sharer %u does not hold line %llx", c,
                   static_cast<unsigned long long>(victim.line));
        dirty |= l2Copy.dirty;
        if (l2Copy.meta & kInL1d)
            dirty |= l1d_[c]->invalidate(victim.line).dirty;
        if (l2Copy.meta & kInL1i)
            l1i_[c]->invalidate(victim.line);
    }
    if (dirty) {
        backend_.writebackLine(victim.line);
        ++statLlcWritebacks_;
    }
}

void
CacheHierarchy::fillComplete(LineAddr line, Cycle when)
{
    auto it = mshrs_.find(line);
    sim_assert(it != mshrs_.end(), "fill for unknown MSHR line %llx",
               static_cast<unsigned long long>(line));
    // Move waiters out before erasing; callbacks may re-enter.
    std::vector<MshrWaiter> waiters = std::move(it->second.waiters);
    mshrs_.erase(it);

    std::uint64_t sharers = 0;
    for (const auto &w : waiters)
        sharers |= 1ull << w.core;

    // A line is absent from L3 while its MSHR is open (every access
    // to it merges here), so insert without a probe; insert asserts.
    handleL3Victim(l3_->insert(line, false, sharers));

    // So no private level holds it either, until a core's first
    // waiter fills that core's L2 and one L1. A later waiter of the
    // same core finds the L2 copy and probes only its own L1.
    std::uint64_t filled = 0;
    for (auto &w : waiters) {
        const std::uint64_t coreBit = 1ull << w.core;
        if (!(filled & coreBit)) {
            filled |= coreBit;
            fillPrivate(w.core, line, w.isWrite, w.isFetch);
            continue;
        }
        Cache &l1 = w.isFetch ? *l1i_[w.core] : *l1d_[w.core];
        const bool inL2 =
            l2_[w.core]->addMeta(line, w.isFetch ? kInL1i : kInL1d);
        sim_assert(inL2, "core %u lost line %llx during its fill", w.core,
                   static_cast<unsigned long long>(line));
        if (!l1.contains(line))
            handleL1Victim(w.core, l1.insert(line, w.isWrite));
        else if (w.isWrite)
            l1.setDirty(line);
    }

    for (auto &w : waiters) {
        if (w.done)
            w.done(when);
    }
}

bool
CacheHierarchy::presentAnywhere(LineAddr line) const
{
    if (l3_->contains(line))
        return true;
    for (std::uint32_t c = 0; c < params_.numCores; ++c) {
        if (l1d_[c]->contains(line) || l1i_[c]->contains(line) ||
            l2_[c]->contains(line)) {
            return true;
        }
    }
    return false;
}

void
CacheHierarchy::resetStats()
{
    stats_.reset();
    for (auto &c : l1i_)
        c->stats().reset();
    for (auto &c : l1d_)
        c->stats().reset();
    for (auto &c : l2_)
        c->stats().reset();
    l3_->stats().reset();
}

} // namespace banshee
