#include "cache/cache.hh"

#include "common/log.hh"

namespace banshee {

Cache::Cache(const CacheParams &params)
    : ways_(params.ways), policy_(params.policy),
      randState_(0x853c49e6748fea9bull), stats_(params.name),
      statHits_(stats_.counter("hits")),
      statMisses_(stats_.counter("misses")),
      statEvictions_(stats_.counter("evictions")),
      statDirtyEvictions_(stats_.counter("dirtyEvictions"))
{
    sim_assert(params.ways > 0, "cache needs at least one way");
    const std::uint64_t numLines = params.sizeBytes / params.lineBytes;
    sim_assert(numLines % params.ways == 0, "lines not divisible by ways");
    numSets_ = static_cast<std::uint32_t>(numLines / params.ways);
    sim_assert(isPow2(numSets_), "%s: number of sets must be a power of two",
               params.name.c_str());
    lines_.assign(numLines, Line{});
}

std::uint32_t
Cache::setIndex(LineAddr line) const
{
    return static_cast<std::uint32_t>(line & (numSets_ - 1));
}

Cache::Line *
Cache::findLine(LineAddr line)
{
    Line *set = &lines_[static_cast<std::uint64_t>(setIndex(line)) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].tag == line)
            return &set[w];
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(LineAddr line) const
{
    return const_cast<Cache *>(this)->findLine(line);
}

bool
Cache::lookup(LineAddr line, bool isWrite, std::uint64_t metaBits)
{
    Line *l = findLine(line);
    if (!l) {
        ++statMisses_;
        return false;
    }
    ++statHits_;
    if (policy_ == ReplPolicy::Lru)
        l->stamp = stampCounter_++;
    if (isWrite)
        l->dirty = true;
    l->meta |= metaBits;
    return true;
}

bool
Cache::contains(LineAddr line) const
{
    return findLine(line) != nullptr;
}

Cache::Victim
Cache::insert(LineAddr line, bool dirty, std::uint64_t meta)
{
    Line *set = &lines_[static_cast<std::uint64_t>(setIndex(line)) * ways_];

    // One pass over the set: reject a double insert, and find the
    // first free way and the smallest stamp (first way on ties). LRU
    // and FIFO both evict the smallest stamp; FIFO simply never
    // refreshes stamps on hits.
    Line *slot = nullptr;
    Line *oldest = &set[0];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Line &l = set[w];
        if (!l.valid) {
            if (!slot)
                slot = &l;
            continue;
        }
        sim_assert(l.tag != line, "double insert of line %llx",
                   static_cast<unsigned long long>(line));
        if (l.stamp < oldest->stamp)
            oldest = &l;
    }

    Victim victim;
    if (!slot) {
        if (policy_ == ReplPolicy::Random) {
            // xorshift for repeatable victim picks without an Rng dep.
            randState_ ^= randState_ << 13;
            randState_ ^= randState_ >> 7;
            randState_ ^= randState_ << 17;
            slot = &set[randState_ % ways_];
        } else {
            slot = oldest;
        }
        victim.valid = true;
        victim.dirty = slot->dirty;
        victim.line = slot->tag;
        victim.meta = slot->meta;
        ++statEvictions_;
        if (slot->dirty)
            ++statDirtyEvictions_;
    }

    slot->tag = line;
    slot->valid = true;
    slot->dirty = dirty;
    slot->meta = meta;
    slot->stamp = stampCounter_++;
    return victim;
}

Cache::Victim
Cache::invalidate(LineAddr line)
{
    Victim out;
    Line *l = findLine(line);
    if (!l)
        return out;
    out.valid = true;
    out.dirty = l->dirty;
    out.line = l->tag;
    out.meta = l->meta;
    l->valid = false;
    l->dirty = false;
    l->meta = 0;
    return out;
}

void
Cache::setDirty(LineAddr line)
{
    Line *l = findLine(line);
    sim_assert(l, "setDirty on absent line %llx",
               static_cast<unsigned long long>(line));
    l->dirty = true;
}

std::uint64_t
Cache::meta(LineAddr line) const
{
    const Line *l = findLine(line);
    sim_assert(l, "meta on absent line");
    return l->meta;
}

bool
Cache::addMeta(LineAddr line, std::uint64_t bits)
{
    Line *l = findLine(line);
    if (!l)
        return false;
    l->meta |= bits;
    return true;
}

void
Cache::release(LineAddr line, std::uint64_t clearBits, bool dirty)
{
    Line *l = findLine(line);
    sim_assert(l, "release of absent line %llx",
               static_cast<unsigned long long>(line));
    l->meta &= ~clearBits;
    l->dirty |= dirty;
}

} // namespace banshee
