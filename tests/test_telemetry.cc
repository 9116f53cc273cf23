/**
 * @file
 * Unit tests for src/telemetry: histogram bucket math and
 * percentiles, the epoch sampler's cadence, the trace's event
 * encoding (escaping, epoch counters, histogram states), and the
 * off-by-default guarantee (telemetry must not perturb a run's
 * results).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "sim/system.hh"
#include "telemetry/histogram.hh"
#include "telemetry/metric_registry.hh"
#include "telemetry/scoped_timer.hh"
#include "telemetry/span_trace.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace_sink.hh"

namespace banshee {
namespace {

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            lines.push_back(line);
    }
    return lines;
}

TEST(Histogram, BucketBounds)
{
    // Bucket 0 is exactly the value 0; bucket i >= 1 is [2^(i-1), 2^i).
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(1023), 10u);
    EXPECT_EQ(Histogram::bucketOf(1024), 11u);

    for (std::uint32_t b = 0; b < Histogram::kBuckets - 1; ++b) {
        EXPECT_EQ(Histogram::bucketOf(Histogram::bucketLow(b)), b);
        EXPECT_EQ(Histogram::bucketOf(Histogram::bucketHigh(b)), b);
        EXPECT_LE(Histogram::bucketLow(b), Histogram::bucketHigh(b));
    }
    // The last bucket saturates: anything above 2^46 lands in it.
    EXPECT_EQ(Histogram::bucketOf(~0ull), Histogram::kBuckets - 1);
    EXPECT_EQ(Histogram::bucketHigh(Histogram::kBuckets - 1), ~0ull);
}

TEST(Histogram, CountSumMaxMean)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(0.99), 0u);

    h.record(0);
    h.record(10);
    h.record(20);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 30u);
    EXPECT_EQ(h.max(), 20u);
    EXPECT_DOUBLE_EQ(h.mean(), 10.0);
    EXPECT_EQ(h.bucketCount(0), 1u);
}

TEST(Histogram, PercentilesAreConservativeAndClamped)
{
    Histogram h;
    // 950 fast samples (value 100) and 50 slow ones (value 9000): the
    // tail must surface at p99 and never exceed the observed max.
    for (int i = 0; i < 950; ++i)
        h.record(100);
    for (int i = 0; i < 50; ++i)
        h.record(9000);
    // p50 lands in 100's bucket [64, 128): upper bound 127.
    EXPECT_EQ(h.percentile(0.50), 127u);
    // p99 lands in the tail bucket [8192, 16384) but is clamped by
    // the true max.
    EXPECT_EQ(h.percentile(0.99), 9000u);
    EXPECT_EQ(h.percentile(1.0), 9000u);

    // Uniform distribution: every percentile equals the single value.
    Histogram u;
    for (int i = 0; i < 100; ++i)
        u.record(5);
    EXPECT_EQ(u.percentile(0.50), 5u);
    EXPECT_EQ(u.percentile(0.99), 5u);
}

TEST(Histogram, MergeResetAndTrimmedBuckets)
{
    Histogram a;
    Histogram b;
    a.record(1);
    b.record(100);
    b.record(0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.sum(), 101u);
    EXPECT_EQ(a.max(), 100u);

    // Trimmed bucket vector stops after the last nonzero bucket.
    const auto counts = a.bucketCounts();
    EXPECT_EQ(counts.size(), Histogram::bucketOf(100) + 1);
    EXPECT_EQ(counts[0], 1u);
    EXPECT_EQ(counts[1], 1u);

    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.max(), 0u);
    EXPECT_TRUE(a.bucketCounts().empty());

    const HistogramSummary s = b.summary("qlat");
    EXPECT_EQ(s.name, "qlat");
    EXPECT_EQ(s.count, 2u);
    EXPECT_EQ(s.max, 100u);
}

TEST(MetricRegistry, EpochSamplerCadence)
{
    EventQueue eq;
    MetricRegistry reg;
    reg.addGauge("now", [&eq] { return static_cast<double>(eq.now()); });

    std::vector<Cycle> sampleCycles;
    reg.start(eq, 100, [&sampleCycles](const MetricRegistry::Sample &s) {
        sampleCycles.push_back(s.cycle);
    });
    eq.run(1000); // the sampler self-reschedules; bound the clock

    ASSERT_GE(sampleCycles.size(), 5u);
    for (std::size_t i = 0; i < sampleCycles.size(); ++i) {
        EXPECT_EQ(sampleCycles[i], 100 * (i + 1));
        EXPECT_DOUBLE_EQ(reg.series()[i].values[0],
                         static_cast<double>(sampleCycles[i]));
        EXPECT_EQ(reg.series()[i].epoch, i);
    }

    // stop() disarms the pending clock event.
    const std::size_t taken = sampleCycles.size();
    reg.stop();
    eq.run(2000);
    EXPECT_EQ(sampleCycles.size(), taken);
}

TEST(MetricRegistry, CountersAndStatSets)
{
    EventQueue eq;
    MetricRegistry reg;
    StatSet set("dev");
    set.counter("reads") += 7;
    set.counter("writes") += 2;
    reg.addStatSet(set, "dev.");

    const auto &s = reg.sample(eq.now());
    ASSERT_EQ(reg.metricNames().size(), 2u);
    EXPECT_EQ(reg.metricNames()[0], "dev.reads");
    EXPECT_DOUBLE_EQ(s.values[0], 7.0);
    EXPECT_DOUBLE_EQ(s.values[1], 2.0);
}

TEST(ScopedTimer, NullTimerIsNoop)
{
    {
        ScopedTimer t(nullptr); // must not crash
    }
    PhaseTimer timer;
    {
        ScopedTimer t(&timer);
    }
    EXPECT_EQ(timer.calls, 1u);
}

/** Lines of a trace file holding events named @p name. */
std::vector<std::string>
eventsNamed(const std::vector<std::string> &lines, const std::string &name)
{
    std::vector<std::string> out;
    for (const auto &line : lines) {
        if (line.find("{\"name\": \"" + name + "\"") == 0)
            out.push_back(line.back() == ',' ? line.substr(0, line.size() - 1)
                                             : line);
    }
    return out;
}

TEST(TraceEvents, FieldsAndLabelsAreEscaped)
{
    const std::string path = tempPath("trace_escape.trace.json");
    {
        TelemetryConfig config;
        config.enabled = true;
        config.path = path;
        PageJournal trace(config, 12, 1);
        trace.controlInstant(PageJournal::kRunTrack, "run_info", 0,
                             {{"label", "run\"B\\"},
                              {"to", 6u},
                              {"strategy", "ch"},
                              {"frac", 0.75}});
        trace.controlInstant(PageJournal::kRunTrack, "plain", 2700);
    }

    const auto lines = readLines(path);
    ASSERT_GE(lines.size(), 3u);
    EXPECT_EQ(lines.front(), "[");
    EXPECT_EQ(lines.back(), "]");
    // Quotes and backslashes in labels must be escaped.
    const auto info = eventsNamed(lines, "run_info");
    ASSERT_EQ(info.size(), 1u);
    EXPECT_EQ(info[0],
              "{\"name\": \"run_info\", \"ph\": \"i\", \"pid\": 3, "
              "\"tid\": 0, \"ts\": 0.0000, \"s\": \"t\", \"args\": "
              "{\"label\": \"run\\\"B\\\\\", \"to\": 6, "
              "\"strategy\": \"ch\", \"frac\": 0.75}}");
    const auto plain = eventsNamed(lines, "plain");
    ASSERT_EQ(plain.size(), 1u);
    EXPECT_EQ(plain[0], "{\"name\": \"plain\", \"ph\": \"i\", "
                        "\"pid\": 3, \"tid\": 0, \"ts\": 1.0000, "
                        "\"s\": \"t\"}");
}

TEST(Telemetry, EpochCountersCarryMetricsAndHistograms)
{
    const std::string path = tempPath("trace_epochs.trace.json");
    {
        EventQueue eq;
        TelemetryConfig config;
        config.enabled = true;
        config.path = path;
        config.epochCycles = 2700; // 1 us
        PageJournal trace(config, 12, 1);
        Telemetry telem(eq, config, &trace);

        Histogram &lat = telem.histogram("lat");
        telem.registry().addGauge("g", [] { return 1.5; });
        lat.record(3);
        telem.startEpochs();
        eq.run(6000);
        telem.finishEpochs();
    }

    const auto lines = readLines(path);
    const auto counters = eventsNamed(lines, "epoch");
    const auto hists = eventsNamed(lines, "epoch_hists");
    // Baseline sample + two epochs. The run ends on the 5400-cycle
    // epoch tick, which already sampled that cycle, so there is no
    // separate closing sample (it would be a zero-length epoch).
    ASSERT_EQ(counters.size(), 3u);
    ASSERT_EQ(hists.size(), 3u);
    const char *ts[] = {"0.0000", "1.0000", "2.0000"};
    for (std::size_t i = 0; i < counters.size(); ++i) {
        EXPECT_EQ(counters[i],
                  std::string("{\"name\": \"epoch\", \"ph\": \"C\", "
                              "\"pid\": 3, \"tid\": 0, \"ts\": ") +
                      ts[i] + ", \"args\": {\"g\": 1.500000}}");
        EXPECT_EQ(hists[i],
                  std::string("{\"name\": \"epoch_hists\", \"ph\": \"i\", "
                              "\"pid\": 3, \"tid\": 0, \"ts\": ") +
                      ts[i] +
                      ", \"s\": \"t\", \"args\": {\"lat\": {\"count\": 1, "
                      "\"sum\": 3, \"max\": 3, \"buckets\": [0, 0, 1]}}}");
    }
}

TEST(Telemetry, RunEndingMidEpochGetsClosingSample)
{
    const std::string path = tempPath("trace_closing.trace.json");
    {
        EventQueue eq;
        TelemetryConfig config;
        config.enabled = true;
        config.path = path;
        config.epochCycles = 2700; // 1 us
        PageJournal trace(config, 12, 1);
        Telemetry telem(eq, config, &trace);
        telem.registry().addGauge("g", [] { return 1.5; });
        telem.startEpochs();
        eq.schedule(Cycle{6750}, [] {}); // the run's last event
        eq.run(6750);
        telem.finishEpochs();
    }

    // Baseline + two epoch ticks, then the partial third epoch's
    // closing sample at the last event (6750 cycles = 2.5 us).
    const auto counters = eventsNamed(readLines(path), "epoch");
    ASSERT_EQ(counters.size(), 4u);
    EXPECT_NE(counters[3].find("\"ts\": 2.5000,"), std::string::npos)
        << counters[3];
}

TEST(Telemetry, EpochSamplesReachTheFileBeforeTheRunEnds)
{
    // A run that aborts (sim_assert, fatal) never closes its trace:
    // every epoch sample must already be on disk when it is taken.
    const std::string path = tempPath("trace_flushed.trace.json");
    EventQueue eq;
    TelemetryConfig config;
    config.enabled = true;
    config.path = path;
    config.epochCycles = 2700; // 1 us
    PageJournal trace(config, 12, 1);
    Telemetry telem(eq, config, &trace);
    telem.registry().addGauge("g", [] { return 1.5; });
    telem.startEpochs();
    eq.run(6000);

    const auto lines = readLines(path);
    EXPECT_EQ(eventsNamed(lines, "epoch").size(), 3u);
    EXPECT_EQ(eventsNamed(lines, "epoch_hists").size(), 3u);
    ASSERT_FALSE(lines.empty());
    EXPECT_NE(lines.back(), "]") << "trace closed before the run ended";
}

TEST(Telemetry, UnpartitionedTenantsHaveNoSliceSeries)
{
    // Without a resize controller the tenants share every slice: a
    // per-tenant slice count would read 0 while each tenant uses all
    // of them, so the series must not exist (as activeSlices).
    const std::vector<TenantConfig> mix = {
        {"resident", "qos_resident", 1.0, 2},
        {"churn", "qos_churn", 1.0, 2}};
    auto hasMetric = [](System &sys, const std::string &name) {
        const auto &names = sys.telemetry()->registry().metricNames();
        return std::find(names.begin(), names.end(), name) != names.end();
    };

    SystemConfig shared = SystemConfig::testDefault();
    shared.numCores = 4;
    shared.withTenants(mix, /*partition=*/false).withTelemetry("");
    System sharedSys(shared);
    EXPECT_EQ(sharedSys.resizeController(), nullptr);
    EXPECT_TRUE(hasMetric(sharedSys, "tenant.resident.accesses"));
    for (const auto &name : sharedSys.telemetry()->registry().metricNames()) {
        EXPECT_FALSE(name.rfind("tenant.", 0) == 0 &&
                     name.size() > 7 &&
                     name.compare(name.size() - 7, 7, ".slices") == 0)
            << name;
    }

    SystemConfig part = SystemConfig::testDefault();
    part.numCores = 4;
    part.withTenants(mix).withTelemetry("");
    System partSys(part);
    ASSERT_NE(partSys.resizeController(), nullptr);
    EXPECT_TRUE(hasMetric(partSys, "tenant.resident.slices"));
    EXPECT_TRUE(hasMetric(partSys, "tenant.churn.slices"));
}

TEST(Telemetry, DisabledByDefaultLeavesResultsIdentical)
{
    // The telemetry acceptance bar: enabling it must not change what
    // the simulator computes, and leaving it off must add nothing.
    // The default pagerank workload misses the SRAM hierarchy enough
    // to exercise the DRAM channels (a too-small footprint records
    // nothing and the histogram assertions below would be vacuous).
    SystemConfig off = SystemConfig::testDefault();
    EXPECT_FALSE(off.telemetry.enabled);

    SystemConfig on = off;
    on.withTelemetry(tempPath("trace_identity.trace.json"), usToCycles(5.0));
    EXPECT_TRUE(on.telemetry.enabled);

    System offSys(off);
    const RunResult a = offSys.run();
    System onSys(on);
    const RunResult b = onSys.run();

    // Simulated outcomes are deterministic and telemetry is
    // read-only accounting: every integer statistic matches exactly.
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_GT(a.dramCacheAccesses, 0u);
    EXPECT_EQ(a.dramCacheAccesses, b.dramCacheAccesses);
    EXPECT_EQ(a.dramCacheMisses, b.dramCacheMisses);
    EXPECT_EQ(a.pagesMigrated, b.pagesMigrated);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    // Energy integrates lazily at observation points, so the epoch
    // gauge adds integration steps: equal up to rounding, not bitwise.
    EXPECT_NEAR(a.totalEnergyPJ(), b.totalEnergyPJ(),
                1e-6 * a.totalEnergyPJ());

    EXPECT_TRUE(a.histograms.empty());
    EXPECT_FALSE(b.histograms.empty());
    bool sawQueueLat = false;
    for (const auto &h : b.histograms) {
        if (h.name == "inpkg.ch0.queueLat") {
            sawQueueLat = true;
            EXPECT_GT(h.count, 0u);
            EXPECT_GE(h.p95, h.p50);
            EXPECT_GE(h.max, h.p99);
        }
    }
    EXPECT_TRUE(sawQueueLat);
}

} // namespace
} // namespace banshee
