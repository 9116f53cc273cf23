/**
 * @file
 * Unit tests for the OS substrate: page-table current/committed
 * split (the lazy-coherence foundation), reverse-map aliasing, and
 * the PTE-update routine's cost and locking protocol.
 */

#include <gtest/gtest.h>

#include "common/event_queue.hh"
#include "common/units.hh"
#include "os/os_services.hh"
#include "os/page_table.hh"

namespace banshee {
namespace {

TEST(PageTable, DefaultsToUncached)
{
    PageTableManager pt;
    EXPECT_FALSE(pt.currentMapping(7).cached);
    EXPECT_FALSE(pt.committedPte(7).mapping.cached);
    EXPECT_FALSE(pt.isStale(7));
}

TEST(PageTable, RemapMakesPteStaleUntilCommit)
{
    PageTableManager pt;
    pt.setCurrentMapping(7, PageMapping{true, 3});
    EXPECT_TRUE(pt.currentMapping(7).cached);
    EXPECT_FALSE(pt.committedPte(7).mapping.cached); // PTE lags
    EXPECT_TRUE(pt.isStale(7));
    EXPECT_EQ(pt.staleCount(), 1u);

    pt.commit(7);
    EXPECT_TRUE(pt.committedPte(7).mapping.cached);
    EXPECT_EQ(pt.committedPte(7).mapping.way, 3);
    EXPECT_FALSE(pt.isStale(7));
    EXPECT_EQ(pt.staleCount(), 0u);
}

TEST(PageTable, VersionsAdvanceOnRemapAndCommit)
{
    PageTableManager pt;
    const auto v0 = pt.committedPte(9).version;
    pt.setCurrentMapping(9, PageMapping{true, 0});
    EXPECT_EQ(pt.committedPte(9).version, v0); // commit not yet run
    EXPECT_GT(pt.currentVersion(9), v0);
    pt.commit(9);
    EXPECT_EQ(pt.committedPte(9).version, pt.currentVersion(9));
}

TEST(PageTable, CommitWritesOnePtePerAlias)
{
    PageTableManager pt;
    pt.setCurrentMapping(5, PageMapping{true, 1});
    EXPECT_EQ(pt.commit(5), 1u); // no aliases: one PTE
    pt.addAlias(5, 0xAAAA);
    pt.addAlias(5, 0xBBBB);
    pt.setCurrentMapping(5, PageMapping{false, 0});
    // The reverse map must reach all three PTEs (paper Section 3.4:
    // this is the aliasing case TDC's inverted page table misses).
    EXPECT_EQ(pt.commit(5), 3u);
    EXPECT_EQ(pt.aliasesOf(5).size(), 2u);
}

TEST(PageTable, RemapToSameMappingIsNotStale)
{
    PageTableManager pt;
    pt.setCurrentMapping(4, PageMapping{true, 2});
    pt.commit(4);
    pt.setCurrentMapping(4, PageMapping{true, 2});
    EXPECT_FALSE(pt.isStale(4)); // mapping value unchanged
}

class OsServicesTest : public ::testing::Test
{
  protected:
    EventQueue eq;
    PageTableManager pt;
};

TEST_F(OsServicesTest, UpdateCommitsHarvestedPages)
{
    OsServices os(eq, pt);
    pt.setCurrentMapping(1, PageMapping{true, 0});
    pt.setCurrentMapping(2, PageMapping{true, 1});
    os.registerTagBufferHarvester(
        [] { return std::vector<PageNum>{1, 2}; });
    os.requestPteUpdate();
    EXPECT_TRUE(os.updateInProgress());
    eq.run();
    EXPECT_FALSE(os.updateInProgress());
    EXPECT_EQ(pt.staleCount(), 0u);
    EXPECT_EQ(os.stats().value("pagesCommitted"), 2u);
}

TEST_F(OsServicesTest, RoutineTakesConfiguredTime)
{
    OsCosts costs;
    costs.pteUpdateRoutine = usToCycles(20.0);
    OsServices os(eq, pt, costs);
    os.registerTagBufferHarvester([] { return std::vector<PageNum>{}; });
    os.requestPteUpdate();
    eq.run();
    EXPECT_EQ(eq.now(), usToCycles(20.0)); // 54000 cycles at 2.7 GHz
}

TEST_F(OsServicesTest, LocksHeldForRoutineDuration)
{
    OsServices os(eq, pt);
    std::vector<std::pair<Cycle, bool>> lockTrace;
    os.registerReplacementLock([&](bool locked) {
        lockTrace.emplace_back(eq.now(), locked);
    });
    os.registerTagBufferHarvester([] { return std::vector<PageNum>{}; });
    os.requestPteUpdate();
    eq.run();
    ASSERT_EQ(lockTrace.size(), 2u);
    EXPECT_TRUE(lockTrace[0].second);
    EXPECT_FALSE(lockTrace[1].second);
    EXPECT_EQ(lockTrace[0].first, 0u);
    EXPECT_EQ(lockTrace[1].first, usToCycles(20.0));
}

TEST_F(OsServicesTest, HandlerCoreStalledShootdownCostsSplit)
{
    OsServices os(eq, pt);
    std::vector<Cycle> stalls(3, 0);
    int flushes = 0;
    for (int c = 0; c < 3; ++c) {
        os.registerCore(OsServices::CoreHooks{
            [&stalls, c](Cycle cy) { stalls[c] += cy; },
            [&flushes] { ++flushes; }});
    }
    os.registerTagBufferHarvester([] { return std::vector<PageNum>{}; });
    os.requestPteUpdate();
    eq.run();
    EXPECT_EQ(flushes, 3); // system-wide shootdown
    // One core paid routine (20 us) + initiator (4 us); the others
    // paid the 1 us slave cost.
    Cycle maxStall = 0, minStall = ~0ull;
    for (Cycle s : stalls) {
        maxStall = std::max(maxStall, s);
        minStall = std::min(minStall, s);
    }
    EXPECT_EQ(maxStall, usToCycles(20.0) + usToCycles(4.0));
    EXPECT_EQ(minStall, usToCycles(1.0));
}

TEST_F(OsServicesTest, ConcurrentRequestsCoalesce)
{
    OsServices os(eq, pt);
    int harvests = 0;
    os.registerTagBufferHarvester([&harvests] {
        ++harvests;
        return std::vector<PageNum>{};
    });
    os.requestPteUpdate();
    os.requestPteUpdate(); // ignored: one already in flight
    eq.run();
    EXPECT_EQ(harvests, 1);
    EXPECT_EQ(os.updateRuns(), 1u);
}

TEST_F(OsServicesTest, StallAllCoresHelper)
{
    OsServices os(eq, pt);
    Cycle total = 0;
    for (int c = 0; c < 4; ++c) {
        os.registerCore(OsServices::CoreHooks{
            [&total](Cycle cy) { total += cy; }, [] {}});
    }
    os.stallAllCores(100);
    EXPECT_EQ(total, 400u);
}

} // namespace
} // namespace banshee
