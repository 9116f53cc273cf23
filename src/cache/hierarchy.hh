/**
 * @file
 * Three-level cache hierarchy (paper Table 2): per-core L1I/L1D and
 * L2, a shared inclusive L3, and an MSHR table that merges concurrent
 * misses to the same line across cores.
 */

#ifndef BANSHEE_CACHE_HIERARCHY_HH
#define BANSHEE_CACHE_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/request.hh"

namespace banshee {

struct HierarchyParams
{
    std::uint32_t numCores = 16;
    std::uint64_t l1iSize = 32 * 1024;
    std::uint32_t l1iWays = 4;
    std::uint64_t l1dSize = 32 * 1024;
    std::uint32_t l1dWays = 8;
    std::uint64_t l2Size = 128 * 1024;
    std::uint32_t l2Ways = 8;
    std::uint64_t l3Size = 8ull * 1024 * 1024;
    std::uint32_t l3Ways = 16;
    Cycle l1Latency = 4;
    Cycle l2Latency = 12;
    Cycle l3Latency = 35;
};

/**
 * The hierarchy is functional-immediate: hits return a latency, LLC
 * misses hand a completion callback to the MemBackend. Inclusion is
 * enforced (L3 evictions back-invalidate L2 copies via per-line
 * sharer masks, L2 evictions L1 copies via per-line presence bits),
 * so every dirty line eventually reaches the backend as an LLC
 * writeback — the traffic Banshee's Tag Buffer must probe for.
 */
class CacheHierarchy
{
  public:
    enum class Level : std::uint8_t { L1, L2, L3, Mem };

    /**
     * L1 presence bits in an L2 line's metadata word: the line may be
     * in this core's L1d / L1i. Set on every L1 fill; a bit may stay
     * set after the L1 drops the line, but is never clear while the
     * L1 holds it. (An L3 line's metadata word holds one sharer bit
     * per core whose L2 holds the line.)
     */
    static constexpr std::uint64_t kInL1d = 1;
    static constexpr std::uint64_t kInL1i = 2;

    struct AccessResult
    {
        Level level = Level::L1;
        Cycle latency = 0;     ///< hit latency; miss adds backend time
        bool pending = false;  ///< true when the done callback will fire
    };

    CacheHierarchy(const HierarchyParams &params, MemBackend &backend);

    /**
     * Data access from core @p core.
     *
     * On an LLC miss, @p done fires when the line arrives (latency
     * already includes the lookup path). Stores are write-allocate
     * and never pend (posted into the L1 once the line arrives).
     */
    AccessResult access(CoreId core, Addr addr, bool isWrite,
                        const MappingInfo &mapping, MissDoneFn done);

    /** Instruction fetch (separate L1I, then shared L2/L3 path). */
    AccessResult fetch(CoreId core, Addr addr, const MappingInfo &mapping,
                       MissDoneFn done);

    /** True if the line is present anywhere on chip (for tests). */
    bool presentAnywhere(LineAddr line) const;

    Cache &l1d(CoreId core) { return *l1d_[core]; }
    Cache &l1i(CoreId core) { return *l1i_[core]; }
    Cache &l2(CoreId core) { return *l2_[core]; }
    Cache &l3() { return *l3_; }

    StatSet &stats() { return stats_; }

    void resetStats();

    std::uint64_t llcMisses() const { return statLlcMisses_.value(); }

  private:
    struct MshrWaiter
    {
        CoreId core;
        bool isWrite;
        bool isFetch;
        MissDoneFn done;
    };

    /** An open LLC miss. Merges are rare, so only they allocate. */
    struct MshrEntry
    {
        MshrWaiter first;
        std::vector<MshrWaiter> merged;
    };

    AccessResult accessInternal(CoreId core, Addr addr, bool isWrite,
                                bool isFetch, const MappingInfo &mapping,
                                MissDoneFn done);

    /** Install @p line into both private levels; neither holds it. */
    void fillPrivate(CoreId core, LineAddr line, bool isWrite, bool isFetch);

    /** L1 -> L2 eviction handling (inclusive: dirty merges into L2). */
    void handleL1Victim(CoreId core, const Cache::Victim &victim);

    /** L2 -> L3 eviction handling (back-invalidate L1s, dirty to L3). */
    void handleL2Victim(CoreId core, const Cache::Victim &victim);

    /** L3 eviction: back-invalidate every sharer, write back if dirty. */
    void handleL3Victim(const Cache::Victim &victim);

    /** Called by the backend when an LLC miss completes. */
    void fillComplete(LineAddr line, Cycle when);

    HierarchyParams params_;
    MemBackend &backend_;

    std::vector<std::unique_ptr<Cache>> l1i_;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::unique_ptr<Cache> l3_;

    std::unordered_map<LineAddr, MshrEntry> mshrs_;

    StatSet stats_;
    Counter &statAccesses_;
    Counter &statLlcMisses_;
    Counter &statMshrMerges_;
    Counter &statLlcWritebacks_;
};

} // namespace banshee

#endif // BANSHEE_CACHE_HIERARCHY_HH
