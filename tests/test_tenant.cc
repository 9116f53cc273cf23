/**
 * @file
 * Multi-tenant partitioning and QoS arbitration:
 *
 *  - TenantMap unit behavior: core handout (explicit counts and the
 *    equal split of the leftover), address-region ownership, runtime
 *    weight changes;
 *  - the QoS arbiter as a pure function: entitlement rebalance
 *    converges after a quota change, pressure lending never takes a
 *    donor below its entitlement floor (quota is a guarantee), and
 *    the power-cap composition sheds from the tenant furthest over
 *    quota;
 *  - end to end on the full machine: per-tenant statistics conserve
 *    the device totals, a cache-hostile streaming tenant cannot
 *    degrade a quota-protected resident tenant's miss rate beyond a
 *    small epsilon of its solo run (while the unpartitioned baseline
 *    degrades it badly), and the arbiter converges slice ownership
 *    to the configured weights after a quota change.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/units.hh"
#include "sim/system.hh"
#include "sim/system_config.hh"
#include "tenant/qos_arbiter.hh"
#include "tenant/tenant_map.hh"
#include "workload/workloads.hh"

namespace banshee {
namespace {

// ------------------------------------------------------------------
// TenantMap
// ------------------------------------------------------------------

TEST(TenantMap, ExplicitCoreCountsAndEqualLeftoverSplit)
{
    // Tenant a pins 2 cores; b and c split the remaining 6 equally.
    TenantMap map({{"a", "mcf", 1.0, 2},
                   {"b", "omnetpp", 1.0, 0},
                   {"c", "milc", 1.0, 0}},
                  8);
    EXPECT_EQ(map.coreCount(0), 2u);
    EXPECT_EQ(map.coreCount(1), 3u);
    EXPECT_EQ(map.coreCount(2), 3u);

    // Contiguous handout, every core owned.
    for (CoreId c = 0; c < 8; ++c) {
        const TenantId t = map.tenantOfCore(c);
        ASSERT_NE(t, kNoTenant) << "core " << c;
        EXPECT_GE(c, map.firstCore(t));
        EXPECT_LT(c, map.firstCore(t) + map.coreCount(t));
    }
    EXPECT_EQ(map.tenantOfCore(99), kNoTenant);
}

TEST(TenantMap, AddressRegionsRecoverTheOwner)
{
    TenantMap map({{"a", "mcf", 1.0, 1}, {"b", "omnetpp", 1.0, 1}}, 2);
    map.addRegion(0x1000, 0x2000, 0);
    map.addRegion(0x8000, 0x9000, 1);

    EXPECT_EQ(map.tenantOfAddr(0x1000), 0);
    EXPECT_EQ(map.tenantOfAddr(0x1fff), 0);
    EXPECT_EQ(map.tenantOfAddr(0x8800), 1);
    EXPECT_EQ(map.tenantOfAddr(0x2000), kNoTenant); // limit is exclusive
    EXPECT_EQ(map.tenantOfAddr(0x7fff), kNoTenant);
}

TEST(TenantMap, WeightsNormalizeAndUpdate)
{
    TenantMap map({{"a", "mcf", 3.0, 1}, {"b", "omnetpp", 1.0, 1}}, 2);
    EXPECT_DOUBLE_EQ(map.share(0), 0.75);
    EXPECT_DOUBLE_EQ(map.share(1), 0.25);

    map.setWeight(0, 1.0);
    EXPECT_DOUBLE_EQ(map.share(0), 0.5);
    EXPECT_EQ(map.weights(), (std::vector<double>{1.0, 1.0}));
}

// ------------------------------------------------------------------
// QosArbiterPolicy (pure function)
// ------------------------------------------------------------------

ResizePolicyConfig
qosConfig()
{
    ResizePolicyConfig c;
    c.kind = ResizePolicyConfig::Kind::Qos;
    c.minEpochAccesses = 100;
    return c;
}

/** Apply reassignment decisions until the arbiter goes quiet. */
int
settle(const QosArbiterPolicy &qos, std::vector<std::uint32_t> &owned,
       const std::vector<TenantEpochStats> &stats,
       std::uint32_t activeSlices, std::uint32_t totalSlices)
{
    int steps = 0;
    for (; steps < 32; ++steps) {
        const QosDecision d = qos.decide(stats, ResizeEpochStats{}, owned,
                                         activeSlices, totalSlices);
        if (d.empty())
            break;
        EXPECT_TRUE(d.reassign());
        --owned[d.donor];
        ++owned[d.receiver];
    }
    return steps;
}

TEST(QosArbiter, RebalanceConvergesAfterAQuotaChange)
{
    QosArbiterPolicy qos(qosConfig(), {3.0, 1.0});
    // Layout built for weights 3:1...
    std::vector<std::uint32_t> owned = {6, 2};
    std::vector<TenantEpochStats> stats(2);

    // ...no drift while the weights still match.
    EXPECT_TRUE(qos.decide(stats, ResizeEpochStats{}, owned, 8, 8).empty());

    // Quota change to 1:1: one slice per epoch until 4/4.
    qos.setWeights({1.0, 1.0});
    const int steps = settle(qos, owned, stats, 8, 8);
    EXPECT_EQ(steps, 2);
    EXPECT_EQ(owned, (std::vector<std::uint32_t>{4, 4}));
}

TEST(QosArbiter, LendingStopsAtTheDonorsEntitlementFloor)
{
    QosArbiterPolicy qos(qosConfig(), {1.0, 1.0});
    std::vector<std::uint32_t> owned = {4, 4};

    // Tenant 1 thrashes, tenant 0 is demonstrably cold.
    std::vector<TenantEpochStats> stats(2);
    stats[0].accesses = 10000;
    stats[0].misses = 10;
    stats[1].accesses = 10000;
    stats[1].misses = 6000;

    // One slice may be lent beyond entitlement...
    const int steps = settle(qos, owned, stats, 8, 8);
    EXPECT_EQ(steps, 1);
    EXPECT_EQ(owned, (std::vector<std::uint32_t>{3, 5}));

    // ...but the donor never drops further below its share, no
    // matter how hard the borrower keeps thrashing: quota holds.
    EXPECT_TRUE(qos.decide(stats, ResizeEpochStats{}, owned, 8, 8).empty());
}

TEST(QosArbiter, PowerCapShedsFromTheTenantOverQuota)
{
    ResizePolicyConfig c = qosConfig();
    c.powerCapWatts = 1.0;
    QosArbiterPolicy qos(c, {1.0, 1.0});

    ResizeEpochStats total;
    total.avgPowerWatts = 1.5; // over budget
    total.bgRefreshWatts = 0.8;

    // Tenant 0 sits two slices over its entitlement: it donates.
    std::vector<TenantEpochStats> stats(2);
    const QosDecision d =
        qos.decide(stats, total, {5, 3}, 8, 8);
    ASSERT_TRUE(d.targetActive.has_value());
    EXPECT_EQ(*d.targetActive, 7u);
    EXPECT_EQ(d.donor, 0);

    // Under budget with margin: the returning slice goes to the
    // larger deficit.
    total.avgPowerWatts = 0.2;
    const QosDecision g = qos.decide(stats, total, {2, 4}, 6, 8);
    ASSERT_TRUE(g.targetActive.has_value());
    EXPECT_EQ(*g.targetActive, 7u);
    EXPECT_EQ(g.receiver, 0);
}

// ------------------------------------------------------------------
// End to end on the full machine
// ------------------------------------------------------------------

/**
 * Tenant-scale test system: a small DRAM cache (8 slices of 512 KB)
 * over an LLC shrunk to 512 KB so the resident tenant's working set
 * (4 cores x 320 KB) lives in the DRAM cache, not the SRAM; the
 * churn tenant streams a footprint larger than the whole device.
 */
SystemConfig
tenantBase()
{
    SystemConfig c = SystemConfig::testDefault();
    c.numCores = 8;
    c.mem.inPkgCapacity = 4ull << 20;
    c.hierarchy.l3Size = 512 * 1024;
    c.autoWarmup = false;
    c.warmupInstrPerCore = 200'000;
    c.measureInstrPerCore = 200'000;
    return c;
}

std::vector<TenantConfig>
residentPlusChurn()
{
    return {{"resident", "qos_resident", 1.0, 4},
            {"churn", "qos_churn", 1.0, 4}};
}

TEST(TenantEndToEnd, PerTenantStatsConserveTheTotals)
{
    SystemConfig c = tenantBase();
    c.withTenants(residentPlusChurn());
    System sys(c);
    const RunResult r = sys.run();

    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_EQ(r.tenants[0].cores, 4u);
    EXPECT_EQ(r.tenants[1].cores, 4u);
    EXPECT_GT(r.tenants[0].instructions, 0u);
    EXPECT_GT(r.tenants[1].instructions, 0u);
    EXPECT_EQ(r.tenants[0].instructions + r.tenants[1].instructions,
              r.instructions);

    // Demand accesses and misses: tenant buckets plus the untagged
    // bucket partition the totals.
    std::uint64_t acc = 0;
    std::uint64_t mis = 0;
    for (const TenantRunStats &t : r.tenants) {
        acc += t.dramCacheAccesses;
        mis += t.dramCacheMisses;
    }
    MemSystem &mem = sys.memSystem();
    for (std::uint32_t mc = 0; mc < mem.numMcs(); ++mc) {
        acc += mem.scheme(mc).tenantAccesses(kNoTenant);
        mis += mem.scheme(mc).tenantMisses(kNoTenant);
    }
    EXPECT_EQ(acc, r.dramCacheAccesses);
    EXPECT_EQ(mis, r.dramCacheMisses);

    // Device bytes: the per-tenant split (plus untagged) conserves
    // the per-category totals.
    std::uint64_t inPkgTenantBytes =
        mem.inPkg()->traffic().tenantBytes(kNoTenant);
    std::uint64_t inPkgCatBytes = 0;
    for (const TenantRunStats &t : r.tenants)
        inPkgTenantBytes += t.inPkgBytes;
    for (std::size_t cat = 0; cat < kNumTrafficCats; ++cat)
        inPkgCatBytes += r.inPkgBytes[cat];
    EXPECT_EQ(inPkgTenantBytes, inPkgCatBytes);

    // An equal-weight partition of 8 slices: 4 each.
    EXPECT_EQ(r.tenants[0].slicesOwned, 4u);
    EXPECT_EQ(r.tenants[1].slicesOwned, 4u);
}

TEST(TenantEndToEnd, QuotaIsolatesTheResidentTenantFromChurn)
{
    // The resident tenant pays for 3/4 of the cache (6 of 8 slices),
    // comfortably above its working set; the churn tenant streams a
    // footprint that overflows the whole device.
    const std::vector<TenantConfig> mix = {
        {"resident", "qos_resident", 3.0, 4},
        {"churn", "qos_churn", 1.0, 4}};

    // Solo: the resident tenant's cores alone on the machine.
    SystemConfig solo = tenantBase();
    solo.numCores = 4;
    solo.workload = "qos_resident";
    const RunResult soloR = System(solo).run();

    // Partitioned: churn is confined to its own 2 slices.
    SystemConfig part = tenantBase();
    part.withTenants(mix);
    const RunResult partR = System(part).run();

    // Unpartitioned baseline: same co-location, shared slices.
    SystemConfig unpart = tenantBase();
    unpart.withTenants(mix, /*partition=*/false);
    const RunResult unpartR = System(unpart).run();

    ASSERT_EQ(partR.tenants.size(), 2u);
    ASSERT_EQ(unpartR.tenants.size(), 2u);
    const double soloMiss = soloR.missRate;
    const double partMiss = partR.tenants[0].missRate;
    const double unpartMiss = unpartR.tenants[0].missRate;

    // With quotas the resident tenant's miss rate stays within a
    // small epsilon of its solo run; without them the churn tenant
    // evicts it and the miss rate climbs several-fold.
    EXPECT_LE(partMiss, soloMiss + 0.03)
        << "solo " << soloMiss << " partitioned " << partMiss;
    EXPECT_GE(unpartMiss, partMiss + 0.02)
        << "partitioned " << partMiss << " unpartitioned " << unpartMiss;
    EXPECT_GE(unpartMiss, 3.0 * partMiss)
        << "partitioned " << partMiss << " unpartitioned " << unpartMiss;
}

TEST(TenantEndToEnd, ArbiterConvergesOwnershipAfterAQuotaChange)
{
    SystemConfig c = tenantBase();
    c.measureInstrPerCore = 300'000;
    c.withTenants(residentPlusChurn());
    c.withQosArbiter();
    // The layout was apportioned for an old 3:1 quota; the configured
    // weights are 1:1 — the arbiter must move ownership to 4/4, one
    // slice-drain at a time.
    c.resize.tenantWeights = {3.0, 1.0};

    System sys(c);
    const RunResult r = sys.run();

    // Two rebalance drains reach the 4/4 entitlement; the thrashing
    // churn tenant may then borrow its one-slice lending allowance
    // (and no more — the arbiter must not flap the loan back and
    // forth through repeated drains).
    EXPECT_GE(r.qosReassigns, 2u);
    EXPECT_LE(r.qosReassigns, 5u);
    EXPECT_GE(r.tenants[0].slicesOwned, 3u);
    EXPECT_LE(r.tenants[0].slicesOwned, 4u);
    EXPECT_EQ(r.tenants[0].slicesOwned + r.tenants[1].slicesOwned, 8u);
    sys.resizeController()->verifyResidencyConsistent();
}

TEST(TenantEndToEnd, QosCreditsMeterEverySchemesTraffic)
{
    // Unison has no tenant-aware machinery of its own: its in-package
    // requests reach the QoS credits only because every scheme tags
    // each request with the tenant owning the address it serves.
    SystemConfig c = tenantBase().withScheme(SchemeKind::Unison);
    c.withTenants({{"resident", "qos_resident", 3.0, 4},
                   {"churn", "qos_churn", 1.0, 4}},
                  /*partition=*/false);
    c.withDramQos();
    const RunResult r = System(c).run();

    ASSERT_TRUE(r.qosSchedEnabled);
    ASSERT_EQ(r.tenants.size(), 2u);
    for (const TenantRunStats &t : r.tenants) {
        EXPECT_GT(t.qosGrants, 0u) << t.name;
        EXPECT_GT(t.inPkgBytes, 0u) << t.name;
        EXPECT_GT(t.dramCacheAccesses, 0u) << t.name;
    }
}

} // namespace
} // namespace banshee
