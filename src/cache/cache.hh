/**
 * @file
 * Generic set-associative SRAM cache used for L1I/L1D/L2/L3, stored
 * as packed per-field arrays (see Cache).
 *
 * The hierarchy is functional-immediate: lookups update state at call
 * time and latencies are accounted by the caller. Only DRAM is
 * event-driven.
 */

#ifndef BANSHEE_CACHE_CACHE_HH
#define BANSHEE_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace banshee {

/** Replacement policy of an SRAM cache. */
enum class ReplPolicy : std::uint8_t { Lru, Fifo, Random };

struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t lineBytes = kLineBytes;
    ReplPolicy policy = ReplPolicy::Lru;
};

/**
 * A set-associative cache of line addresses. Lines carry a dirty bit
 * and a 64-bit user metadata word (the shared L3 stores a sharer
 * bitmask there, each L2 its L1 presence bits).
 *
 * The state is kept per field, one flat array each, indexed by
 * set * ways + way:
 *  - tags: a set's tags sit side by side, so a probe scans one
 *    contiguous run. An empty way holds kEmpty (~0), which is never a
 *    line address (insert asserts it), so there is no valid bit.
 *  - age ranks, one byte per way: in every set the ranks are a
 *    permutation of 0..ways-1, 0 the youngest. Touching a way (an
 *    insert, or an LRU hit) gives it rank 0 and ages by one every way
 *    younger than it. The LRU/FIFO victim of a full set is the way
 *    with rank ways-1.
 *  - dirty flags, one byte per way.
 *  - metadata words, allocated the first time the cache stores a
 *    nonzero word, so the L1s (which never do) keep none.
 * A line is 10 bytes without metadata and 18 with it.
 *
 * Why ranks give the same victims as per-touch stamps: touching moves
 * a way to the front of its set's recency list, so the ranks order the
 * valid ways by their last touch, exactly as increasing stamps would.
 * An empty way keeps its place in the list, and a set with an empty
 * way takes its first empty way instead of evicting. The ranks stay a
 * permutation, so, unlike a stamp counter, they cannot wrap.
 */
class Cache
{
  public:
    struct Victim
    {
        bool valid = false;
        bool dirty = false;
        LineAddr line = 0;
        std::uint64_t meta = 0;
    };

    explicit Cache(const CacheParams &params);

    /**
     * Look up @p line. On a hit, updates replacement state, sets the
     * dirty bit if @p isWrite and ORs @p metaBits into the line's
     * metadata word.
     * @return true on hit.
     */
    bool lookup(LineAddr line, bool isWrite, std::uint64_t metaBits = 0);

    /** Hit check without any state change. */
    bool contains(LineAddr line) const;

    /**
     * Insert @p line (must not be present). Returns the evicted
     * victim, if any.
     */
    Victim insert(LineAddr line, bool dirty, std::uint64_t meta = 0);

    /**
     * Remove @p line if present.
     * @return the removed entry (valid=false if it was absent).
     */
    Victim invalidate(LineAddr line);

    /** Set the dirty bit of a resident line (asserts presence). */
    void setDirty(LineAddr line);

    /**
     * OR @p bits into @p line's metadata word if the line is present,
     * without touching replacement state.
     * @return true if the line was present.
     */
    bool addMeta(LineAddr line, std::uint64_t bits);

    /**
     * A copy of resident @p line one level up was dropped: clear
     * @p clearBits of its metadata word and, if @p dirty, set its
     * dirty bit. Asserts presence (the level is inclusive).
     */
    void release(LineAddr line, std::uint64_t clearBits, bool dirty);

    /** Read a resident line's metadata word (asserts presence). */
    std::uint64_t meta(LineAddr line) const;

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t ways() const { return ways_; }

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

    std::uint64_t hits() const { return statHits_.value(); }
    std::uint64_t misses() const { return statMisses_.value(); }

  private:
    /** Tag of an empty way. */
    static constexpr LineAddr kEmpty = ~LineAddr{0};
    /** find()'s result for an absent line. */
    static constexpr std::uint64_t kAbsent = ~std::uint64_t{0};

    /** Index of @p line's set's first way in the flat arrays. */
    std::uint64_t setBase(LineAddr line) const;
    /** Flat index of @p line's way, or kAbsent. */
    std::uint64_t find(LineAddr line) const;
    /** Make way @p way of the set at @p base the youngest. */
    void touch(std::uint64_t base, std::uint32_t way);
    /** The metadata word at @p i, allocating the array on first use. */
    std::uint64_t &metaWord(std::uint64_t i);
    std::uint64_t
    metaAt(std::uint64_t i) const
    {
        return meta_.empty() ? 0 : meta_[i];
    }

    std::uint32_t numSets_;
    std::uint32_t ways_;
    ReplPolicy policy_;
    std::vector<LineAddr> tags_;
    std::vector<std::uint8_t> ranks_;
    std::vector<std::uint8_t> dirty_;
    std::vector<std::uint64_t> meta_;
    std::uint64_t randState_;

    StatSet stats_;
    Counter &statHits_;
    Counter &statMisses_;
    Counter &statEvictions_;
    Counter &statDirtyEvictions_;
};

} // namespace banshee

#endif // BANSHEE_CACHE_CACHE_HH
