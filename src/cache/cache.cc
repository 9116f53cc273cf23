#include "cache/cache.hh"

#include <algorithm>

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
    sim_assert(params.ways <= 256,
               "%s: %u ways do not fit a one-byte age rank",
               params.name.c_str(), params.ways);
    const std::uint64_t numLines = params.sizeBytes / params.lineBytes;
    sim_assert(numLines % params.ways == 0, "lines not divisible by ways");
    numSets_ = static_cast<std::uint32_t>(numLines / params.ways);
    sim_assert(isPow2(numSets_), "%s: number of sets must be a power of two",
               params.name.c_str());
    tags_.assign(numLines, kEmpty);
    dirty_.assign(numLines, 0);
    // Every set starts with ranks 0..ways-1: write the first set, then
    // double the filled prefix (the set count is a power of two).
    ranks_.resize(numLines);
    for (std::uint32_t w = 0; w < ways_; ++w)
        ranks_[w] = static_cast<std::uint8_t>(w);
    for (std::uint64_t filled = ways_; filled < numLines; filled *= 2)
        std::copy_n(ranks_.begin(), filled, ranks_.begin() + filled);
}

std::uint64_t
Cache::setBase(LineAddr line) const
{
    return (line & (numSets_ - 1)) * ways_;
}

std::uint64_t
Cache::find(LineAddr line) const
{
    const std::uint64_t base = setBase(line);
    const LineAddr *tag = &tags_[base];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (tag[w] == line)
            return base + w;
    }
    return kAbsent;
}

void
Cache::touch(std::uint64_t base, std::uint32_t way)
{
    std::uint8_t *rank = &ranks_[base];
    const std::uint8_t age = rank[way];
    if (age == 0)
        return;
    // A local bound: byte stores may alias ways_, which would force a
    // reload per way and block vectorising.
    const std::uint32_t ways = ways_;
    for (std::uint32_t w = 0; w < ways; ++w)
        rank[w] += rank[w] < age;
    rank[way] = 0;
}

std::uint64_t &
Cache::metaWord(std::uint64_t i)
{
    if (meta_.empty())
        meta_.assign(tags_.size(), 0);
    return meta_[i];
}

bool
Cache::lookup(LineAddr line, bool isWrite, std::uint64_t metaBits)
{
    const std::uint64_t i = find(line);
    if (i == kAbsent) {
        ++statMisses_;
        return false;
    }
    ++statHits_;
    if (policy_ == ReplPolicy::Lru) {
        const std::uint64_t base = setBase(line);
        touch(base, static_cast<std::uint32_t>(i - base));
    }
    if (isWrite)
        dirty_[i] = 1;
    if (metaBits)
        metaWord(i) |= metaBits;
    return true;
}

bool
Cache::contains(LineAddr line) const
{
    return find(line) != kAbsent;
}

Cache::Victim
Cache::insert(LineAddr line, bool dirty, std::uint64_t meta)
{
    sim_assert(line != kEmpty, "insert of the empty-way tag");
    const std::uint64_t base = setBase(line);
    const LineAddr *tag = &tags_[base];

    // One pass over the tags rejects a double insert and finds the
    // first free way.
    const std::uint32_t ways = ways_;
    std::uint32_t slot = ways;
    for (std::uint32_t w = 0; w < ways; ++w) {
        sim_assert(tag[w] != line, "double insert of line %llx",
                   static_cast<unsigned long long>(line));
        if (tag[w] == kEmpty && slot == ways)
            slot = w;
    }

    Victim victim;
    if (slot == ways) {
        if (policy_ == ReplPolicy::Random) {
            // xorshift for repeatable victim picks without an Rng dep.
            randState_ ^= randState_ << 13;
            randState_ ^= randState_ >> 7;
            randState_ ^= randState_ << 17;
            slot = static_cast<std::uint32_t>(randState_ % ways);
        } else {
            // A full set's ranks are 0..ways-1, so its oldest way (LRU
            // and FIFO both evict it) holds ways-1.
            const std::uint8_t *rank = &ranks_[base];
            slot = static_cast<std::uint32_t>(
                std::find(rank, rank + ways, ways - 1) - rank);
        }
        const std::uint64_t v = base + slot;
        victim.valid = true;
        victim.dirty = dirty_[v];
        victim.line = tags_[v];
        victim.meta = metaAt(v);
        ++statEvictions_;
        if (victim.dirty)
            ++statDirtyEvictions_;
    }

    const std::uint64_t i = base + slot;
    tags_[i] = line;
    dirty_[i] = dirty;
    if (meta || !meta_.empty())
        metaWord(i) = meta;
    touch(base, slot);
    return victim;
}

Cache::Victim
Cache::invalidate(LineAddr line)
{
    Victim out;
    const std::uint64_t i = find(line);
    if (i == kAbsent)
        return out;
    out.valid = true;
    out.dirty = dirty_[i];
    out.line = line;
    out.meta = metaAt(i);
    // An insert rewrites the dirty flag and metadata word, so freeing
    // the tag is enough.
    tags_[i] = kEmpty;
    return out;
}

void
Cache::setDirty(LineAddr line)
{
    const std::uint64_t i = find(line);
    sim_assert(i != kAbsent, "setDirty on absent line %llx",
               static_cast<unsigned long long>(line));
    dirty_[i] = 1;
}

std::uint64_t
Cache::meta(LineAddr line) const
{
    const std::uint64_t i = find(line);
    sim_assert(i != kAbsent, "meta on absent line");
    return metaAt(i);
}

bool
Cache::addMeta(LineAddr line, std::uint64_t bits)
{
    const std::uint64_t i = find(line);
    if (i == kAbsent)
        return false;
    if (bits)
        metaWord(i) |= bits;
    return true;
}

void
Cache::release(LineAddr line, std::uint64_t clearBits, bool dirty)
{
    const std::uint64_t i = find(line);
    sim_assert(i != kAbsent, "release of absent line %llx",
               static_cast<unsigned long long>(line));
    if (!meta_.empty())
        meta_[i] &= ~clearBits;
    dirty_[i] |= dirty;
}

} // namespace banshee
