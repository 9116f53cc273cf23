/**
 * @file
 * Page table with Banshee's PTE extension and a reverse map.
 *
 * Banshee adds a "cached" bit and "way" bits to each PTE
 * (paper Section 3.2). The crucial subtlety of the lazy-coherence
 * design is that PTEs (and therefore TLBs) lag reality: a remap takes
 * effect in hardware immediately (memory controller + Tag Buffer) but
 * is only written into PTEs when tag buffers are batch-flushed
 * (Section 3.4). We model this with two mapping copies per page:
 *
 *   current   — what the hardware (MC + Tag Buffer) knows, updated at
 *               replacement time;
 *   committed — what PTEs/TLBs say, updated by the PTE-update routine.
 *
 * The invariant the design rests on (tested in tests/): whenever
 * current != committed, the page is present in some Tag Buffer with
 * its remap bit set.
 *
 * The reverse map (physical page -> list of virtual aliases) mirrors
 * the OS mechanism the paper leans on for finding PTEs from physical
 * addresses, including the aliasing case TDC cannot handle.
 */

#ifndef BANSHEE_OS_PAGE_TABLE_HH
#define BANSHEE_OS_PAGE_TABLE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace banshee {

/** The PTE extension bits (fits in otherwise-unused PTE bits). */
struct PageMapping
{
    bool cached = false;
    std::uint8_t way = 0;

    bool
    operator==(const PageMapping &o) const
    {
        return cached == o.cached && (!cached || way == o.way);
    }
};

class PageTableManager
{
  public:
    PageTableManager() : stats_("pageTable") {}

    /** Hardware view (MC + Tag Buffer). */
    PageMapping
    currentMapping(PageNum page) const
    {
        auto it = pages_.find(page);
        return it == pages_.end() ? PageMapping{} : it->second.current;
    }

    /** A PTE as a TLB refill reads it: mapping and version. */
    struct CommittedPte
    {
        PageMapping mapping;
        std::uint32_t version = 0;
    };

    /**
     * PTE view (what a TLB refill observes), with the version of the
     * committed mapping for staleness tracking.
     */
    CommittedPte
    committedPte(PageNum page) const
    {
        auto it = pages_.find(page);
        return it == pages_.end()
                   ? CommittedPte{}
                   : CommittedPte{it->second.committed,
                                  it->second.committedVersion};
    }

    std::uint32_t
    currentVersion(PageNum page) const
    {
        auto it = pages_.find(page);
        return it == pages_.end() ? 0 : it->second.currentVersion;
    }

    /** True if PTEs lag the hardware mapping for @p page. */
    bool
    isStale(PageNum page) const
    {
        auto it = pages_.find(page);
        return it != pages_.end() &&
               !(it->second.current == it->second.committed);
    }

    /**
     * Hardware remap: takes effect immediately in the current view.
     * Called by the DRAM cache scheme at replacement time.
     */
    void
    setCurrentMapping(PageNum page, PageMapping m)
    {
        Entry &e = pages_[page];
        e.current = m;
        ++e.currentVersion;
    }

    /**
     * PTE-update routine commits one page: walks the reverse map and
     * writes every aliased PTE. Returns the number of PTEs written.
     */
    std::uint32_t
    commit(PageNum page)
    {
        auto it = pages_.find(page);
        if (it == pages_.end())
            return 0;
        Entry &e = it->second;
        e.committed = e.current;
        e.committedVersion = e.currentVersion;
        const std::uint32_t ptes =
            1 + static_cast<std::uint32_t>(e.aliases.size());
        stats_.counter("pteWrites") += ptes;
        return ptes;
    }

    /** Register an extra virtual alias of @p page (for alias tests). */
    void
    addAlias(PageNum page, std::uint64_t virtualPage)
    {
        pages_[page].aliases.push_back(virtualPage);
    }

    const std::vector<std::uint64_t> &
    aliasesOf(PageNum page)
    {
        return pages_[page].aliases;
    }

    /** Number of pages whose PTEs currently lag the hardware. */
    std::uint64_t
    staleCount() const
    {
        std::uint64_t n = 0;
        for (const auto &kv : pages_)
            if (!(kv.second.current == kv.second.committed))
                ++n;
        return n;
    }

    StatSet &stats() { return stats_; }

  private:
    struct Entry
    {
        PageMapping current;
        PageMapping committed;
        std::uint32_t currentVersion = 0;
        std::uint32_t committedVersion = 0;
        std::vector<std::uint64_t> aliases;
    };

    std::unordered_map<PageNum, Entry> pages_;
    StatSet stats_;
};

} // namespace banshee

#endif // BANSHEE_OS_PAGE_TABLE_HH
