#include "resize/consistent_hash.hh"

#include <algorithm>

#include "common/log.hh"

namespace banshee {

const char *
resizeStrategyName(ResizeStrategy s)
{
    switch (s) {
      case ResizeStrategy::ConsistentHash:
        return "ConsistentHash";
      case ResizeStrategy::FlushAll:
        return "FlushAll";
    }
    return "?";
}

ConsistentHashMapper::ConsistentHashMapper(const ConsistentHashParams &params)
    : params_(params), active_(params.numSlices, true),
      sliceTenant_(params.numSlices, kNoTenant),
      activeCount_(params.numSlices)
{
    sim_assert(params.numSlices > 0, "mapper needs at least one slice");
    sim_assert(params.vnodesPerSlice > 0, "mapper needs virtual nodes");

    ring_.reserve(static_cast<std::size_t>(params.numSlices) *
                  params.vnodesPerSlice);
    for (std::uint32_t s = 0; s < params.numSlices; ++s) {
        // Each vnode point is a splitmix64 chain seeded per slice, so
        // the ring is deterministic in (seed, slice, vnode index).
        std::uint64_t h = params.ringSeed * 0x9e3779b97f4a7c15ull + s;
        for (std::uint32_t v = 0; v < params.vnodesPerSlice; ++v) {
            h = mix(h);
            ring_.push_back(VNode{h, s});
        }
    }
    std::sort(ring_.begin(), ring_.end());
}

void
ConsistentHashMapper::setActive(std::uint32_t slice, bool active)
{
    sim_assert(slice < params_.numSlices, "bad slice %u", slice);
    if (active_[slice] == active)
        return;
    if (!active)
        sim_assert(activeCount_ > 1, "cannot deactivate the last slice");
    active_[slice] = active;
    activeCount_ += active ? 1 : -1;
}

std::uint32_t
ConsistentHashMapper::sliceOf(PageNum page, TenantId tenant) const
{
    const std::uint64_t point = mix(page);
    // First vnode at or after the key's point, wrapping at the end;
    // then walk to the first vnode of an active slice the tenant may
    // use. The first active slice of any owner is remembered as a
    // fallback for tenants that (transiently) own nothing eligible.
    std::size_t idx =
        std::lower_bound(ring_.begin(), ring_.end(),
                         VNode{point, 0}) -
        ring_.begin();
    std::uint32_t fallback = params_.numSlices;
    for (std::size_t step = 0; step < ring_.size(); ++step, ++idx) {
        if (idx == ring_.size())
            idx = 0;
        const VNode &vn = ring_[idx];
        if (!active_[vn.slice])
            continue;
        const TenantId owner = sliceTenant_[vn.slice];
        if (tenant == kNoTenant || owner == kNoTenant || owner == tenant)
            return vn.slice;
        if (fallback == params_.numSlices)
            fallback = vn.slice;
    }
    if (fallback < params_.numSlices)
        return fallback;
    panic("consistent-hash ring has no active slice");
}

} // namespace banshee
