/**
 * @file
 * Unit tests for the SRAM cache and the three-level hierarchy:
 * replacement policies, dirty handling, inclusion/back-invalidation,
 * MSHR merging and LLC writeback generation.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "common/event_queue.hh"
#include "common/rng.hh"

namespace banshee {
namespace {

CacheParams
smallCache(std::uint32_t ways, ReplPolicy policy = ReplPolicy::Lru)
{
    CacheParams p;
    p.name = "t";
    p.sizeBytes = 64ull * 8 * ways; // 8 sets
    p.ways = ways;
    p.policy = policy;
    return p;
}

TEST(Cache, HitAfterInsert)
{
    Cache c(smallCache(2));
    EXPECT_FALSE(c.lookup(8, false));
    c.insert(8, false);
    EXPECT_TRUE(c.lookup(8, false));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(smallCache(2));
    // Same set: lines 0, 8, 16 with 8 sets.
    c.insert(0, false);
    c.insert(8, false);
    c.lookup(0, false); // refresh 0
    const auto victim = c.insert(16, false);
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.line, 8u);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(16));
}

TEST(Cache, FifoIgnoresHits)
{
    Cache c(smallCache(2, ReplPolicy::Fifo));
    c.insert(0, false);
    c.insert(8, false);
    c.lookup(0, false); // should NOT refresh under FIFO
    const auto victim = c.insert(16, false);
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.line, 0u);
}

TEST(Cache, DirtyBitOnWriteAndEviction)
{
    Cache c(smallCache(1));
    c.insert(0, false);
    c.lookup(0, true); // store
    const auto victim = c.insert(8, false);
    ASSERT_TRUE(victim.valid);
    EXPECT_TRUE(victim.dirty);
}

TEST(Cache, InvalidateReturnsState)
{
    Cache c(smallCache(2));
    c.insert(8, true);
    const auto removed = c.invalidate(8);
    EXPECT_TRUE(removed.valid);
    EXPECT_TRUE(removed.dirty);
    EXPECT_FALSE(c.contains(8));
    EXPECT_FALSE(c.invalidate(8).valid); // second time: absent
}

TEST(Cache, MetaRoundTrip)
{
    Cache c(smallCache(2));
    c.insert(8, false, 0xEF);
    EXPECT_EQ(c.meta(8), 0xEFu);
    EXPECT_TRUE(c.addMeta(8, 0x100));
    EXPECT_EQ(c.meta(8), 0x1EFu);
    EXPECT_FALSE(c.addMeta(16, 0x1)); // absent: no effect
    EXPECT_TRUE(c.lookup(8, false, 0x1000));
    EXPECT_EQ(c.meta(8), 0x11EFu);
    c.release(8, 0xEF, true);
    EXPECT_EQ(c.meta(8), 0x1100u);
    EXPECT_TRUE(c.invalidate(8).dirty);
}

TEST(CacheDeathTest, DoubleInsertAsserts)
{
    // The duplicate sits after the first free way (ways 2 and 3 are
    // empty), and in a full set: the one-pass insert must see both.
    Cache partial(smallCache(4));
    partial.insert(0, false);
    partial.insert(8, false);
    EXPECT_DEATH(partial.insert(8, false), "double insert");
    Cache full(smallCache(2));
    full.insert(0, false);
    full.insert(8, false);
    EXPECT_DEATH(full.insert(0, false), "double insert");
}

TEST(CacheDeathTest, ReleaseOfAbsentLineAsserts)
{
    Cache c(smallCache(2));
    EXPECT_DEATH(c.release(8, 0, true), "release of absent line");
}

/** FNV-1a over 64-bit words, byte by byte. */
struct Fnv
{
    std::uint64_t hash = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            hash ^= (v >> (8 * b)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    }
};

// Pins every victim an insert picks and every invalidate result under
// a seeded mix, for each replacement policy.
std::uint64_t
goldenCacheStream(ReplPolicy policy)
{
    Cache c(smallCache(4, policy));
    Rng rng(19);
    Fnv fnv;
    for (int i = 0; i < 5000; ++i) {
        const LineAddr line = rng.nextBelow(96);
        if (!c.lookup(line, rng.nextBelow(4) == 0)) {
            const Cache::Victim v =
                c.insert(line, rng.nextBelow(8) == 0, line * 3);
            fnv.add(v.valid);
            fnv.add(v.dirty);
            fnv.add(v.line);
            fnv.add(v.meta);
        }
        if (rng.nextBelow(16) == 0) {
            const Cache::Victim v = c.invalidate(rng.nextBelow(96));
            fnv.add(v.valid);
            fnv.add(v.line);
        }
    }
    fnv.add(c.hits());
    fnv.add(c.misses());
    fnv.add(c.stats().value("evictions"));
    fnv.add(c.stats().value("dirtyEvictions"));
    return fnv.hash;
}

TEST(Cache, GoldenVictimStreamPerPolicy)
{
    EXPECT_EQ(goldenCacheStream(ReplPolicy::Lru), 0x990520a32792f87bull);
    EXPECT_EQ(goldenCacheStream(ReplPolicy::Fifo), 0xdfc0cbe43e6d4e70ull);
    EXPECT_EQ(goldenCacheStream(ReplPolicy::Random), 0x84fae26b6755faaeull);
}

TEST(Cache, InsertPrefersInvalidWays)
{
    Cache c(smallCache(4));
    c.insert(0, false);
    const auto v = c.insert(8, false);
    EXPECT_FALSE(v.valid); // three ways were still empty
}

TEST(CacheDeathTest, EmptyWayTagAsserts)
{
    Cache c(smallCache(2));
    EXPECT_DEATH(c.insert(~LineAddr{0}, false), "empty-way tag");
}

TEST(CacheDeathTest, WaysBeyondRankByteAssert)
{
    EXPECT_DEATH(Cache c(smallCache(257)), "one-byte age rank");
}

TEST(Cache, LargestRankByteEvictsOldest)
{
    // 256 ways: the oldest line's age rank is 255, the most a byte holds.
    Cache c(smallCache(256));
    for (LineAddr i = 0; i < 256; ++i)
        c.insert(i * 8, false);
    c.lookup(0, false);
    const auto v = c.insert(256 * 8, false);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.line, 8u);
}

/**
 * Reference model: one struct per line, and a stamp from a counter
 * taken on every insert (and on every LRU hit) orders LRU/FIFO
 * victims. Cache must pick the same victims with its age ranks.
 */
class StampCache
{
  public:
    StampCache(std::uint32_t sets, std::uint32_t ways, ReplPolicy policy)
        : sets_(sets), ways_(ways), policy_(policy),
          lines_(static_cast<std::size_t>(sets) * ways)
    {
    }

    bool
    contains(LineAddr line)
    {
        return find(line) != nullptr;
    }

    bool
    lookup(LineAddr line, bool isWrite, std::uint64_t metaBits)
    {
        Line *l = find(line);
        if (!l)
            return false;
        if (policy_ == ReplPolicy::Lru)
            l->stamp = stamp_++;
        l->dirty |= isWrite;
        l->meta |= metaBits;
        return true;
    }

    Cache::Victim
    insert(LineAddr line, bool dirty, std::uint64_t meta)
    {
        Line *set = &lines_[(line % sets_) * ways_];
        Line *slot = nullptr;
        Line *oldest = nullptr;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!set[w].valid) {
                if (!slot)
                    slot = &set[w];
            } else if (!oldest || set[w].stamp < oldest->stamp) {
                oldest = &set[w];
            }
        }
        Cache::Victim v;
        if (!slot) {
            if (policy_ == ReplPolicy::Random) {
                rand_ ^= rand_ << 13;
                rand_ ^= rand_ >> 7;
                rand_ ^= rand_ << 17;
                slot = &set[rand_ % ways_];
            } else {
                slot = oldest;
            }
            v = Cache::Victim{true, slot->dirty, slot->tag, slot->meta};
        }
        *slot = Line{line, stamp_++, meta, true, dirty};
        return v;
    }

    Cache::Victim
    invalidate(LineAddr line)
    {
        Line *l = find(line);
        if (!l)
            return Cache::Victim{};
        l->valid = false;
        return Cache::Victim{true, l->dirty, l->tag, l->meta};
    }

    bool
    addMeta(LineAddr line, std::uint64_t bits)
    {
        Line *l = find(line);
        if (l)
            l->meta |= bits;
        return l != nullptr;
    }

    void
    release(LineAddr line, std::uint64_t clearBits, bool dirty)
    {
        Line *l = find(line);
        l->meta &= ~clearBits;
        l->dirty |= dirty;
    }

    void setDirty(LineAddr line) { find(line)->dirty = true; }

    std::uint64_t meta(LineAddr line) { return find(line)->meta; }

  private:
    struct Line
    {
        LineAddr tag = 0;
        std::uint64_t stamp = 0;
        std::uint64_t meta = 0;
        bool valid = false;
        bool dirty = false;
    };

    Line *
    find(LineAddr line)
    {
        Line *set = &lines_[(line % sets_) * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (set[w].valid && set[w].tag == line)
                return &set[w];
        }
        return nullptr;
    }

    std::uint32_t sets_;
    std::uint32_t ways_;
    ReplPolicy policy_;
    std::vector<Line> lines_;
    std::uint64_t stamp_ = 1;
    std::uint64_t rand_ = 0x853c49e6748fea9bull;
};

auto
fields(const Cache::Victim &v)
{
    return std::make_tuple(v.valid, v.dirty, v.line, v.meta);
}

class CacheDifferentialTest
    : public ::testing::TestWithParam<std::tuple<ReplPolicy, int>>
{
};

TEST_P(CacheDifferentialTest, MatchesStampModel)
{
    const auto [policy, ways] = GetParam();
    constexpr std::uint32_t kSets = 8; // smallCache's geometry
    Cache c(smallCache(static_cast<std::uint32_t>(ways), policy));
    StampCache ref(kSets, static_cast<std::uint32_t>(ways), policy);
    Rng rng(23 + static_cast<std::uint64_t>(ways));
    // About three lines per way, so sets fill, evict and refill.
    const std::uint64_t span = 3ull * kSets * static_cast<std::uint64_t>(ways);
    constexpr int kOps = 20000;
    std::uint64_t evictions = 0;
    for (int i = 0; i < kOps; ++i) {
        SCOPED_TRACE(i);
        const LineAddr line = rng.nextBelow(span);
        const bool write = rng.nextBelow(4) == 0;
        // No metadata for the first half: Cache allocates its
        // metadata words mid-run, on the first nonzero one.
        const std::uint64_t bits = i < kOps / 2 || rng.nextBelow(4) == 0
                                       ? 0
                                       : 1ull << rng.nextBelow(64);
        const bool present = ref.contains(line);
        ASSERT_EQ(c.contains(line), present);
        switch (rng.nextBelow(8)) {
        case 0:
        case 1:
        case 2:
            ASSERT_EQ(c.lookup(line, write, bits), present);
            ref.lookup(line, write, bits);
            if (!present) {
                const Cache::Victim v = c.insert(line, write, bits);
                ASSERT_EQ(fields(v), fields(ref.insert(line, write, bits)));
                evictions += v.valid;
            }
            break;
        case 3:
            ASSERT_EQ(fields(c.invalidate(line)),
                      fields(ref.invalidate(line)));
            break;
        case 4:
            if (present) {
                const std::uint64_t clear = rng.next();
                c.release(line, clear, write);
                ref.release(line, clear, write);
            }
            break;
        case 5:
            ASSERT_EQ(c.addMeta(line, bits), ref.addMeta(line, bits));
            break;
        case 6:
            if (present) {
                c.setDirty(line);
                ref.setDirty(line);
            }
            break;
        default:
            if (present) {
                ASSERT_EQ(c.meta(line), ref.meta(line));
            }
            break;
        }
    }
    // Every resident line still matches, victim state included.
    for (LineAddr line = 0; line < span; ++line)
        ASSERT_EQ(fields(c.invalidate(line)), fields(ref.invalidate(line)));
    EXPECT_GT(evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndWays, CacheDifferentialTest,
    ::testing::Combine(::testing::Values(ReplPolicy::Lru, ReplPolicy::Fifo,
                                         ReplPolicy::Random),
                       ::testing::Values(1, 2, 4, 8, 16)));

class CacheGeometryTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheGeometryTest, FillsToCapacityWithoutEvicting)
{
    const auto [setsLog2, ways] = GetParam();
    const std::uint32_t sets = 1u << setsLog2;
    CacheParams p;
    p.sizeBytes = static_cast<std::uint64_t>(sets) * ways * 64;
    p.ways = static_cast<std::uint32_t>(ways);
    Cache c(p);
    // Insert exactly capacity distinct lines mapping evenly to sets.
    std::uint64_t evictions = 0;
    for (std::uint32_t i = 0; i < sets * ways; ++i) {
        if (c.insert(i, false).valid)
            ++evictions;
    }
    EXPECT_EQ(evictions, 0u);
    // One more per set must evict.
    if (c.insert(sets * static_cast<std::uint32_t>(ways), false).valid)
        ++evictions;
    EXPECT_EQ(evictions, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Combine(::testing::Values(2, 4, 6),
                       ::testing::Values(1, 2, 4, 8, 16)));

//
// Hierarchy tests with a recording backend.
//

class RecordingBackend : public MemBackend
{
  public:
    void
    fetchLine(LineAddr line, const MappingInfo &, CoreId,
              MissDoneFn done) override
    {
        fetches.push_back(line);
        pending.emplace_back(line, std::move(done));
    }

    void
    writebackLine(LineAddr line) override
    {
        writebacks.push_back(line);
    }

    /** Complete all outstanding fetches at cycle @p when. */
    void
    completeAll(Cycle when = 100)
    {
        auto moved = std::move(pending);
        pending.clear();
        for (auto &[line, done] : moved)
            done(when);
    }

    std::vector<LineAddr> fetches;
    std::vector<LineAddr> writebacks;
    std::vector<std::pair<LineAddr, MissDoneFn>> pending;
};

HierarchyParams
tinyHierarchy(std::uint32_t cores = 2)
{
    HierarchyParams p;
    p.numCores = cores;
    p.l1iSize = 1024;
    p.l1iWays = 2;
    p.l1dSize = 1024;
    p.l1dWays = 2;
    p.l2Size = 4096;
    p.l2Ways = 4;
    p.l3Size = 16384;
    p.l3Ways = 4;
    return p;
}

TEST(Hierarchy, MissThenHitLevels)
{
    RecordingBackend backend;
    CacheHierarchy h(tinyHierarchy(), backend);
    bool done = false;
    auto r = h.access(0, 0x1000, false, MappingInfo{},
                      [&done](Cycle) { done = true; });
    EXPECT_EQ(r.level, CacheHierarchy::Level::Mem);
    EXPECT_TRUE(r.pending);
    backend.completeAll();
    EXPECT_TRUE(done);
    // Now resident in L1.
    r = h.access(0, 0x1000, false, MappingInfo{}, nullptr);
    EXPECT_EQ(r.level, CacheHierarchy::Level::L1);
    EXPECT_FALSE(r.pending);
}

TEST(Hierarchy, CrossCoreSharingHitsInL3)
{
    RecordingBackend backend;
    CacheHierarchy h(tinyHierarchy(), backend);
    h.access(0, 0x1000, false, MappingInfo{}, nullptr);
    backend.completeAll();
    // Core 1 misses its private levels but hits the shared L3.
    auto r = h.access(1, 0x1000, false, MappingInfo{}, nullptr);
    EXPECT_EQ(r.level, CacheHierarchy::Level::L3);
}

TEST(Hierarchy, MshrMergesConcurrentMisses)
{
    RecordingBackend backend;
    CacheHierarchy h(tinyHierarchy(), backend);
    int completions = 0;
    auto cb = [&completions](Cycle) { ++completions; };
    h.access(0, 0x2000, false, MappingInfo{}, cb);
    h.access(1, 0x2000, false, MappingInfo{}, cb);
    EXPECT_EQ(backend.fetches.size(), 1u); // merged
    backend.completeAll();
    EXPECT_EQ(completions, 2); // both waiters complete
}

TEST(Hierarchy, DirtyLineEventuallyWrittenBack)
{
    RecordingBackend backend;
    CacheHierarchy h(tinyHierarchy(1), backend);
    h.access(0, 0x1000, true, MappingInfo{}, nullptr); // store
    backend.completeAll();
    // Evict it by filling far more lines than total capacity.
    for (int i = 1; i < 2048; ++i) {
        h.access(0, 0x1000 + static_cast<Addr>(i) * 64, false,
                 MappingInfo{}, nullptr);
        backend.completeAll();
    }
    bool found = false;
    for (LineAddr wb : backend.writebacks)
        if (wb == lineOf(0x1000))
            found = true;
    EXPECT_TRUE(found);
}

TEST(Hierarchy, InclusionBackInvalidatesPrivateCopies)
{
    RecordingBackend backend;
    HierarchyParams p = tinyHierarchy(1);
    CacheHierarchy h(p, backend);
    h.access(0, 0x1000, false, MappingInfo{}, nullptr);
    backend.completeAll();
    EXPECT_TRUE(h.l1d(0).contains(lineOf(0x1000)));
    // Flood the L3 set that 0x1000 maps to until it is evicted; the
    // L1 copy must disappear with it (inclusion).
    const std::uint32_t l3Sets = h.l3().numSets();
    for (std::uint32_t i = 1; i <= p.l3Ways + 1; ++i) {
        const Addr addr = 0x1000 + static_cast<Addr>(i) * l3Sets * 64;
        h.access(0, addr, false, MappingInfo{}, nullptr);
        backend.completeAll();
    }
    EXPECT_FALSE(h.l3().contains(lineOf(0x1000)));
    EXPECT_FALSE(h.l1d(0).contains(lineOf(0x1000)));
    EXPECT_FALSE(h.presentAnywhere(lineOf(0x1000)));
}

TEST(Hierarchy, WritebackCarriesNoMappingPath)
{
    // LLC writebacks must reach the backend via writebackLine (the
    // path that has no PTE mapping attached — Banshee's probe case).
    RecordingBackend backend;
    CacheHierarchy h(tinyHierarchy(1), backend);
    h.access(0, 0x9000, true, MappingInfo{}, nullptr);
    backend.completeAll();
    const std::size_t before = backend.writebacks.size();
    for (int i = 1; i < 4096; ++i) {
        h.access(0, 0x9000 + static_cast<Addr>(i) * 64, false,
                 MappingInfo{}, nullptr);
        backend.completeAll();
    }
    EXPECT_GT(backend.writebacks.size(), before);
}

TEST(Hierarchy, FetchPathUsesL1I)
{
    RecordingBackend backend;
    CacheHierarchy h(tinyHierarchy(1), backend);
    auto r = h.fetch(0, 0x4000, MappingInfo{}, nullptr);
    EXPECT_EQ(r.level, CacheHierarchy::Level::Mem);
    backend.completeAll();
    r = h.fetch(0, 0x4000, MappingInfo{}, nullptr);
    EXPECT_EQ(r.level, CacheHierarchy::Level::L1);
    EXPECT_TRUE(h.l1i(0).contains(lineOf(0x4000)));
    EXPECT_FALSE(h.l1d(0).contains(lineOf(0x4000)));
}

// ------------------------------------------------------------------
// Golden victim stream: pins what a seeded 64-core mix of reads,
// writes and fetches does to a small hierarchy. It hashes the level
// every access is served from, the backend's fetch and writeback
// order, and every cache's hit, miss, eviction and dirty-eviction
// counts. Any change in which lines a probe finds or which victim an
// insert picks moves the hash.
// ------------------------------------------------------------------

HierarchyParams
goldenHierarchy()
{
    HierarchyParams p = tinyHierarchy(64);
    p.l3Size = 64 * 1024; // 128 sets, less than the 64 L2s together
    p.l3Ways = 8;
    return p;
}

/**
 * Drive @p h with the golden mix: a few hot lines every core shares,
 * a private region per core, and a wide region that keeps evicting
 * L2 and L3 lines. Fetches complete in batches, so concurrent misses
 * merge in the MSHRs. @p afterAccess runs after every access.
 */
template <typename Check>
std::uint64_t
runGoldenMix(CacheHierarchy &h, RecordingBackend &backend, int steps,
             Check afterAccess)
{
    Rng rng(1517);
    Fnv fnv;
    Cycle now = 0;
    for (int i = 0; i < steps; ++i) {
        const CoreId core = static_cast<CoreId>(rng.nextBelow(64));
        const std::uint64_t kind = rng.nextBelow(10);
        LineAddr line = 0;
        if (kind < 4)
            line = rng.nextBelow(512);
        else if (kind < 7)
            line = (1ull << 20) + core * 4096ull + rng.nextBelow(128);
        else
            line = (1ull << 24) + rng.nextBelow(1ull << 14);
        const Addr addr = line * kLineBytes;
        const std::uint64_t op = rng.nextBelow(8);
        CacheHierarchy::AccessResult r;
        if (op < 2)
            r = h.fetch(core, addr, MappingInfo{}, nullptr);
        else
            r = h.access(core, addr, op < 4, MappingInfo{}, nullptr);
        fnv.add(static_cast<std::uint64_t>(r.level));
        afterAccess(line);
        if (rng.nextBelow(32) == 0) {
            backend.completeAll(now += 100);
            afterAccess(line);
        }
    }
    backend.completeAll(now + 100);

    for (LineAddr l : backend.fetches)
        fnv.add(l);
    fnv.add(~0ull);
    for (LineAddr l : backend.writebacks)
        fnv.add(l);
    auto addCache = [&fnv](const Cache &c) {
        fnv.add(c.hits());
        fnv.add(c.misses());
        fnv.add(c.stats().value("evictions"));
        fnv.add(c.stats().value("dirtyEvictions"));
    };
    for (CoreId c = 0; c < 64; ++c) {
        addCache(h.l1i(c));
        addCache(h.l1d(c));
        addCache(h.l2(c));
    }
    addCache(h.l3());
    return fnv.hash;
}

TEST(Hierarchy, GoldenVictimStream)
{
    RecordingBackend backend;
    CacheHierarchy h(goldenHierarchy(), backend);
    const std::uint64_t hash =
        runGoldenMix(h, backend, 40000, [](LineAddr) {});
    EXPECT_EQ(backend.fetches.size(), 29512u);
    EXPECT_EQ(backend.writebacks.size(), 8454u);
    EXPECT_EQ(h.stats().value("mshrMerges"), 156u);
    EXPECT_EQ(hash, 0x3738161364a35d79ull);
}

/**
 * Presence filters must have no false negatives: every L1 copy has its
 * presence bit set in the L2 line, and every L2 copy has its core's
 * sharer bit set in the L3 line.
 */
void
expectPresenceBits(CacheHierarchy &h, LineAddr line)
{
    for (CoreId c = 0; c < 64; ++c) {
        if (h.l1d(c).contains(line)) {
            ASSERT_TRUE(h.l2(c).contains(line));
            EXPECT_TRUE(h.l2(c).meta(line) & CacheHierarchy::kInL1d)
                << "core " << c << " line " << line;
        }
        if (h.l1i(c).contains(line)) {
            ASSERT_TRUE(h.l2(c).contains(line));
            EXPECT_TRUE(h.l2(c).meta(line) & CacheHierarchy::kInL1i)
                << "core " << c << " line " << line;
        }
        if (h.l2(c).contains(line)) {
            ASSERT_TRUE(h.l3().contains(line));
            EXPECT_TRUE(h.l3().meta(line) & (1ull << c))
                << "core " << c << " line " << line;
        }
    }
}

TEST(Hierarchy, PresenceBitsNeverMissACopy)
{
    RecordingBackend backend;
    CacheHierarchy h(goldenHierarchy(), backend);
    // Check the accessed line after every access and fill batch, and
    // every line touched so far once per 1000 checks.
    std::set<LineAddr> touched;
    int checks = 0;
    runGoldenMix(h, backend, 10000, [&](LineAddr line) {
        touched.insert(line);
        expectPresenceBits(h, line);
        if (++checks % 1000 == 0) {
            for (LineAddr l : touched)
                expectPresenceBits(h, l);
        }
    });
    for (LineAddr l : touched)
        expectPresenceBits(h, l);
    EXPECT_GT(touched.size(), 4000u);
}

TEST(Hierarchy, L2EvictionClearsSharerBit)
{
    RecordingBackend backend;
    HierarchyParams p = tinyHierarchy(2);
    CacheHierarchy h(p, backend);
    const LineAddr line = lineOf(0x1000);
    h.access(0, 0x1000, false, MappingInfo{}, nullptr);
    backend.completeAll();
    h.access(1, 0x1000, false, MappingInfo{}, nullptr); // L3 hit
    EXPECT_EQ(h.l3().meta(line), 0b11u);
    EXPECT_EQ(h.l2(1).meta(line), CacheHierarchy::kInL1d);

    // Core 0 fills its L2 set with other lines. They fall in other L3
    // sets (or one L3 set with room), so only core 0's L2 drops it.
    const std::uint32_t l2Sets = h.l2(0).numSets();
    for (std::uint32_t i = 1; i <= p.l2Ways; ++i) {
        h.access(0, (line + i * l2Sets) * kLineBytes, false, MappingInfo{},
                 nullptr);
        backend.completeAll();
    }
    EXPECT_FALSE(h.l2(0).contains(line));
    EXPECT_FALSE(h.l1d(0).contains(line));
    ASSERT_TRUE(h.l3().contains(line));
    EXPECT_EQ(h.l3().meta(line), 0b10u);
}

} // namespace
} // namespace banshee
