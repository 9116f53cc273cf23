#include "cpu/tlb.hh"

#include "common/log.hh"

namespace banshee {

Tlb::Tlb(const TlbParams &params, const PageTableManager &pageTable,
         std::string name)
    : params_(params), pageTable_(pageTable), stats_(std::move(name)),
      statHits_(stats_.counter("hits")),
      statMisses_(stats_.counter("misses")),
      statShootdowns_(stats_.counter("shootdowns"))
{
    sim_assert(params.entries % params.ways == 0,
               "TLB entries not divisible by ways");
    numSets_ = params.entries / params.ways;
    sim_assert(isPow2(numSets_), "TLB sets must be a power of two");
    entries_.assign(params.entries, Entry{});
}

Tlb::LookupResult
Tlb::lookup(PageNum page)
{
    Entry *set = &entries_[static_cast<std::uint64_t>(page & (numSets_ - 1)) *
                           params_.ways];
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        if (set[w].valid && set[w].page == page) {
            set[w].stamp = stampCounter_++;
            ++statHits_;
            return LookupResult{set[w].info, 0};
        }
    }

    // Miss: page walk reads the committed PTE.
    ++statMisses_;
    const PageTableManager::CommittedPte pte = pageTable_.committedPte(page);
    MappingInfo info;
    info.valid = true;
    info.cached = pte.mapping.cached;
    info.way = pte.mapping.way;
    info.version = pte.version;

    Entry *victim = &set[0];
    for (std::uint32_t w = 1; w < params_.ways; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].stamp < victim->stamp)
            victim = &set[w];
    }
    victim->page = page;
    victim->info = info;
    victim->stamp = stampCounter_++;
    victim->valid = true;

    return LookupResult{info, params_.missLatency};
}

void
Tlb::flushAll()
{
    ++statShootdowns_;
    for (auto &e : entries_)
        e.valid = false;
}

} // namespace banshee
