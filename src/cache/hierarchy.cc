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

    if (l2_[core]->lookup(line, false)) {
        fillPrivate(core, line, isWrite, isFetch);
        res.level = Level::L2;
        res.latency = params_.l2Latency;
        return res;
    }

    if (l3_->lookup(line, false)) {
        l3_->setMeta(line, l3_->meta(line) |
                               1ull << core);
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
    if (!l2_[core]->contains(line)) {
        handleL2Victim(core, l2_[core]->insert(line, false));
    }
    if (!l1.contains(line)) {
        handleL1Victim(core, l1.insert(line, isWrite));
    } else if (isWrite) {
        l1.setDirty(line);
    }
}

void
CacheHierarchy::handleL1Victim(CoreId core, const Cache::Victim &victim)
{
    if (!victim.valid || !victim.dirty)
        return;
    // L2 is inclusive of L1: fillPrivate fills L2 before L1, and both
    // L2 and L3 victims back-invalidate the L1 copies. So the line is
    // still in L2 (setDirty asserts it); merge the dirty data there.
    l2_[core]->setDirty(victim.line);
}

void
CacheHierarchy::handleL2Victim(CoreId core, const Cache::Victim &victim)
{
    if (!victim.valid)
        return;
    // Back-invalidate the L1 copies (inclusive L2).
    bool dirty = victim.dirty;
    dirty |= l1d_[core]->invalidate(victim.line).dirty;
    l1i_[core]->invalidate(victim.line);
    if (!dirty)
        return;
    if (l3_->contains(victim.line)) {
        l3_->setDirty(victim.line);
    } else {
        backend_.writebackLine(victim.line);
        ++statLlcWritebacks_;
    }
}

void
CacheHierarchy::handleL3Victim(const Cache::Victim &victim)
{
    if (!victim.valid)
        return;
    bool dirty = victim.dirty;
    const std::uint64_t sharers = victim.meta;
    for (std::uint32_t c = 0; c < params_.numCores; ++c) {
        if (!(sharers & (1ull << c)))
            continue;
        dirty |= l1d_[c]->invalidate(victim.line).dirty;
        l1i_[c]->invalidate(victim.line);
        dirty |= l2_[c]->invalidate(victim.line).dirty;
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

    if (!l3_->contains(line))
        handleL3Victim(l3_->insert(line, false, sharers));
    else
        l3_->setMeta(line, l3_->meta(line) | sharers);

    for (auto &w : waiters)
        fillPrivate(w.core, line, w.isWrite, w.isFetch);

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
